(* Spans taken by the benchmark around its own calls into the program.
   Each span has a name, start and end (ns), the span that caused it and
   a request id (the window or batch number).  Spans are kept in fixed
   arrays and written out when the run ends; per-name counts and total
   time are kept for every span, also once the arrays are full. *)

type t = {
  names : string array;
  parent_of : int array;  (** the name every span of this name nests in, or -1 *)
  mutable n_names : int;
  count : int array;
  total : int array;
  cap : int;
  s_name : int array;
  s_parent : int array;
  s_req : int array;
  s_start : int array;
  s_stop : int array;
  mutable n : int;
  mutable dropped : int;
}

let max_names = 32

let create cap =
  {
    names = Array.make max_names "";
    parent_of = Array.make max_names (-1);
    n_names = 0;
    count = Array.make max_names 0;
    total = Array.make max_names 0;
    cap;
    s_name = Array.make cap 0;
    s_parent = Array.make cap 0;
    s_req = Array.make cap 0;
    s_start = Array.make cap 0;
    s_stop = Array.make cap 0;
    n = 0;
    dropped = 0;
  }

let register ?(parent = -1) t name =
  let id = t.n_names in
  t.names.(id) <- name;
  t.parent_of.(id) <- parent;
  t.n_names <- id + 1;
  id

(* Open a span; the returned index is the [parent] of the spans it
   causes ([-1] once the arrays are full). *)
let open_ t name ~parent ~req ~start =
  if t.n < t.cap then begin
    let i = t.n in
    t.n <- i + 1;
    t.s_name.(i) <- name;
    t.s_parent.(i) <- parent;
    t.s_req.(i) <- req;
    t.s_start.(i) <- start;
    t.s_stop.(i) <- start;
    i
  end
  else begin
    t.dropped <- t.dropped + 1;
    -1
  end

let close t name i ~start ~stop =
  t.count.(name) <- t.count.(name) + 1;
  t.total.(name) <- t.total.(name) + (stop - start);
  if i >= 0 then t.s_stop.(i) <- stop

let span t name ~parent ~req ~start ~stop =
  close t name (open_ t name ~parent ~req ~start) ~start ~stop

let count t name = t.count.(name)
let total_ns t name = t.total.(name)

(* A span's self time: its duration less the time of the spans nested in
   it. *)
let self_ns t name =
  let children = ref 0 in
  for c = 0 to t.n_names - 1 do
    if t.parent_of.(c) = name then children := !children + t.total.(c)
  done;
  t.total.(name) - !children

let summary t =
  List.init t.n_names (fun i ->
      Printf.sprintf "span %-28s n=%-9d total=%.3fms mean=%.0fns self=%.3fms"
        t.names.(i) t.count.(i)
        (float_of_int t.total.(i) /. 1e6)
        (if t.count.(i) > 0 then float_of_int t.total.(i) /. float_of_int t.count.(i)
         else 0.)
        (float_of_int (self_ns t i) /. 1e6))

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "span\tname\tparent\treq\tstart_ns\tstop_ns\n";
      for i = 0 to t.n - 1 do
        Printf.fprintf oc "%d\t%s\t%d\t%d\t%d\t%d\n" i t.names.(t.s_name.(i))
          t.s_parent.(i) t.s_req.(i) t.s_start.(i) t.s_stop.(i)
      done)
