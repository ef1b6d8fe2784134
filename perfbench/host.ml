(* The host record printed beside every run's metrics, and the process
   readings (CPU, peak RSS) the end-to-end metrics are made of.  Every
   reading is from /proc; a missing file reads as -1, never as a failure. *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let words s =
  String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) s)
  |> List.filter (fun w -> w <> "")

(* The value of a "Key:   123 kB" line of a /proc status file. *)
let status_field text key =
  String.split_on_char '\n' text
  |> List.find_map (fun line ->
         match String.index_opt line ':' with
         | Some i when String.sub line 0 i = key -> (
           match words (String.sub line (i + 1) (String.length line - i - 1)) with
           | v :: _ -> int_of_string_opt v
           | [] -> None)
         | _ -> None)
  |> Option.value ~default:(-1)

let kernel () =
  match read_file "/proc/sys/kernel/osrelease" with
  | Some s -> String.trim s
  | None -> "unknown"

(* (steal, total) jiffies of the aggregate "cpu" line of /proc/stat. *)
let cpu_jiffies () =
  match read_file "/proc/stat" with
  | None -> (-1, -1)
  | Some s -> (
    match String.split_on_char '\n' s with
    | line :: _ -> (
      match words line with
      | "cpu" :: fields ->
        let v = List.filteri (fun i _ -> i < 8) fields |> List.map int_of_string in
        (List.nth v 7, List.fold_left ( + ) 0 v)
      | _ -> (-1, -1))
    | [] -> (-1, -1))

(* Involuntary context switches summed over every thread of the process. *)
let involuntary_switches () =
  match Sys.readdir "/proc/self/task" with
  | exception Sys_error _ -> -1
  | tasks ->
    Array.fold_left
      (fun acc tid ->
        match read_file (Printf.sprintf "/proc/self/task/%s/status" tid) with
        | Some s -> acc + max 0 (status_field s "nonvoluntary_ctxt_switches")
        | None -> acc)
      0 tasks

let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | Some s -> float_of_int (status_field s "VmHWM") /. 1024.
  | None -> -1.

type sample = { steal : int; jiffies : int; nvcsw : int; cpu : Unix.process_times }

let sample () =
  let steal, jiffies = cpu_jiffies () in
  { steal; jiffies; nvcsw = involuntary_switches (); cpu = Unix.times () }

let user_s a b = b.cpu.Unix.tms_utime -. a.cpu.Unix.tms_utime
let sys_s a b = b.cpu.Unix.tms_stime -. a.cpu.Unix.tms_stime

(* Read at start-up: a thread pinned to one CPU later sees one core. *)
let cores = Domain.recommended_domain_count ()

(* One JSON object: cores, kernel, I/O backend, and the steal share and
   involuntary switches over the measured interval [a, b]. *)
let record ~io a b =
  let steal_pct =
    if b.jiffies > a.jiffies then
      100. *. float_of_int (b.steal - a.steal) /. float_of_int (b.jiffies - a.jiffies)
    else 0.
  in
  Printf.sprintf
    "{\"cores\": %d, \"kernel\": %S, \"io\": %S, \"steal_pct\": %.2f, \
     \"involuntary_switches\": %d, \"user_s\": %.3f, \"sys_s\": %.3f}"
    cores (kernel ()) io steal_pct (b.nvcsw - a.nvcsw) (user_s a b) (sys_s a b)
