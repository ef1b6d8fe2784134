(* netdsl's benchmark: one workload per process.

     bench --workload udp-arq|engine-arq|engine-ipv4-churn --seed N
           --seconds S --trace 0|1

   Every run generates its inputs from the seed, self-tests its output
   check, sets up, warms up, then measures, and finally sets up
   [setup_reps - 1] more times ([setup_s] is the median).  The last
   line of stdout is one JSON object: the end-to-end metrics with
   [--trace 0], the per-layer metrics with [--trace 1].  README.md has
   the layer map and the make-up of the inputs. *)

open Netdsl
module Pipeline = Engine.Pipeline
module Flight = Engine.Flight

let now = Net.Mmsg.now_ns
let setup_reps = 15

(* ---- small statistics ---- *)

let median_f a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let median_ns l = median_f (Array.of_list (List.map float_of_int l))
let per a b = if b > 0. then a /. b else 0.
let fi = float_of_int

(* ---- timed phases ---- *)

type phase = {
  units : int;
  rate : float;  (** units per second over the phase *)
  cpu_ns : float;  (** process CPU (user + sys) per unit *)
  p50 : float;  (** latency quantiles (ns) of the phase's samples *)
  p90 : float;
  p99 : float;
  p999 : float;
  samples : int;
}

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Call [step] (which returns the units it completed) for [seconds].
   Metrics are taken over the whole phase: the rate is units over elapsed
   time and the latency quantiles come from every sample.  Under host
   speed changes that last seconds, a whole-phase mean moves smoothly with
   the share of slow time, where a median of time slices flips between
   the slow and the fast rate. *)
let run_phase ~seconds ~hist step =
  let t_start = now () in
  let stop = t_start + int_of_float (seconds *. 1e9) in
  Hist.clear hist;
  let c0 = cpu_s () in
  let total = ref 0 in
  let t = ref t_start in
  while !t < stop do
    total := !total + step ();
    t := now ()
  done;
  let units = max 1 !total in
  {
    units = !total;
    rate = fi !total *. 1e9 /. fi (!t - t_start);
    cpu_ns = (cpu_s () -. c0) *. 1e9 /. fi units;
    p50 = Hist.quantile hist 0.50;
    p90 = Hist.quantile hist 0.90;
    p99 = Hist.quantile hist 0.99;
    p999 = Hist.quantile hist 0.999;
    samples = hist.Hist.total;
  }

(* Warm-up: a fixed share of the run, at most two seconds. *)
let warmup_s seconds = Float.min 2. (0.15 *. seconds)

(* ---- output ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  List.iter
    (fun x ->
      if not (Float.is_finite x.value) then
        failwith (Printf.sprintf "metric %s is not a number" x.name))
    metrics;
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_number x.value)
          x.unit_)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " body)

(* The end-to-end metrics every workload reports.  Rate and tail
   latency are printed but not gated: on a shared virtual machine they
   read the hypervisor's steal as much as the program (README.md). *)
let end_to_end ph ~setup_ns ~rss_mb =
  Printf.printf "rate %.0f/s; rtt samples %d: p90 %.1f us, p99 %.1f us, p99.9 %.1f us\n"
    ph.rate ph.samples (ph.p90 /. 1e3) (ph.p99 /. 1e3) (ph.p999 /. 1e3);
  [ m "rtt_p50_us" "us" (ph.p50 /. 1e3);
    m "cpu_us_per_pkt" "us" (ph.cpu_ns /. 1e3);
    m "setup_s" "s" (setup_ns /. 1e9);
    m "peak_rss_mb" "MB" rss_mb ]

let write_trace tr ~workload ~seed =
  let dir = ".perfbench_out" in
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let path = Printf.sprintf "%s/trace-%s-seed%d.tsv" dir workload seed in
  Spans.write tr path;
  List.iter print_endline (Spans.summary tr);
  Printf.printf "spans written to %s (%d kept, %d counted only)\n" path tr.Spans.n
    tr.Spans.dropped

(* ---- stage replays: the workload's own packets through single calls ---- *)

(* ns per call of [f i] over [n] items, repeated for at least 100 ms. *)
let ns_per_op n f =
  if n = 0 then 0.
  else begin
    let t0 = now () in
    let ops = ref 0 in
    while now () - t0 < 100_000_000 do
      for i = 0 to n - 1 do
        f i
      done;
      ops := !ops + n
    done;
    fi (now () - t0) /. fi !ops
  end

let replays (spec : Workloads.spec) (stream : Engine_run.stream) =
  let r = min 4096 stream.Engine_run.length in
  let buf = Bytes.create 2048 in
  let pkts =
    Array.init r (fun p ->
        let n = stream.Engine_run.fill buf p in
        Bytes.sub_string buf 0 n)
  in
  let valid =
    List.filter
      (fun p ->
        let c = stream.Engine_run.cls p in
        c = Engine_run.cls_step || c = Engine_run.cls_pass)
      (List.init r Fun.id)
    |> Array.of_list
  in
  let plan = Step.compile spec.machine in
  let fl = Flight.compile ~plan spec.fmt spec.flight in
  let decode =
    ns_per_op r (fun i ->
        let s = pkts.(i) in
        ignore (Flight.run_window fl ~off:0 ~len:(String.length s) s))
  in
  let patcher =
    match Emit.patcher spec.fmt spec.patch_field with
    | Ok p -> p
    | Error e -> failwith e
  in
  let bufs = Array.map (fun p -> Bytes.of_string pkts.(p)) valid in
  let patch =
    ns_per_op (Array.length bufs) (fun i ->
        let b = bufs.(i) in
        ignore (Emit.patch_window_int patcher ~off:0 ~len:(Bytes.length b) b spec.patch_value))
  in
  (* the event sequence: each verified, classified packet's event on its flow *)
  let flows = Hashtbl.create 1024 in
  let events =
    Array.to_list pkts
    |> List.filter_map (fun s ->
           if
             Flight.run_window fl ~off:0 ~len:(String.length s) s
             && Flight.verify_ok fl && Flight.event fl >= 0
           then begin
             let k = Flight.flow_key fl in
             let inst =
               match Hashtbl.find_opt flows k with
               | Some i -> i
               | None ->
                 let i = Step.instance plan in
                 Hashtbl.add flows k i;
                 i
             in
             Some (inst, Flight.event fl)
           end
           else None)
    |> Array.of_list
  in
  let fire =
    ns_per_op (Array.length events) (fun i ->
        let inst, ev = events.(i) in
        ignore (Step.fire_id inst ev))
  in
  [ m "flight.decode_ns_per_pkt" "ns" decode;
    m "emit.patch_ns_per_reply" "ns" patch;
    m "step.fire_ns_per_event" "ns" fire ]

let compile_ms (spec : Workloads.spec) =
  median_ns
    (List.init setup_reps (fun _ ->
         let t0 = now () in
         let plan = Step.compile spec.machine in
         ignore (Sys.opaque_identity (Flight.compile ~plan spec.fmt spec.flight));
         now () - t0))
  /. 1e6

(* ---- the in-memory engine ---- *)

type engine_setup = {
  make : unit -> Engine_run.t * Workloads.spec * int * int;
      (** a fresh engine; its parse and total set-up times (ns) *)
  stream : Engine_run.stream;
}

let engine_setup ~config ~batch ~make_spec stream =
  let make () =
    let eng = Engine_run.create ~stream ~batch ~max_flows:config.Pipeline.max_flows in
    let t0 = now () in
    let spec : Workloads.spec = make_spec () in
    let t1 = now () in
    let pipe =
      Pipeline.create ~config ~mode:Pipeline.Fused ~flight:spec.flight ~machine:spec.machine
        ~clock_ms:(Engine_run.clock_ms eng) ~now_ns:now
        ~on_reply_slot:(Engine_run.on_reply eng) spec.fmt
    in
    let t2 = now () in
    Engine_run.attach eng pipe;
    (eng, spec, t1 - t0, t2 - t0)
  in
  { make; stream }

(* The run's own set-up is timed first; [setup_reps - 1] more, each
   thrown away, are timed after the run has read its peak RSS, so their
   garbage does not count in it.  Returns the medians of parse and total
   set-up time (ns) over all of them. *)
let more_setups ~first:(p0, t0) once =
  let rec go k parse total =
    if k = 0 then (median_ns parse, median_ns total)
    else begin
      Gc.full_major ();
      let p, t = once () in
      go (k - 1) (p :: parse) (t :: total)
    end
  in
  go (setup_reps - 1) [ p0 ] [ t0 ]

let count_pass_packets = 1 lsl 18

(* A fresh engine over exactly [count_pass_packets] packets: the counts
   fixed by the inputs (rejects by stage, evictions, timer expiries). *)
let count_pass ?spans setup =
  let eng, _, _, _ = setup.make () in
  while Engine_run.sent eng < count_pass_packets do
    match spans with
    | Some (tr, sp) -> ignore (Engine_run.window_traced eng tr sp)
    | None -> ignore (Engine_run.window eng)
  done;
  let b = Engine_run.balance eng in
  Printf.printf "count pass (%d packets): %s %s\n" count_pass_packets
    (Engine_run.balance_to_string b) (Outcome.to_string eng.Engine_run.chk);
  let kp = fi count_pass_packets /. 1000. in
  ( b.Engine_run.balanced && Outcome.failed eng.Engine_run.chk = 0,
    [ m "pipeline.flows_live" "count" (fi (Pipeline.flow_count (Engine_run.pipeline eng)));
      m "pipeline.evictions_per_kpkt" "evictions/kpkt" (fi b.Engine_run.evicted /. kp);
      m "pipeline.accepted" "count" (fi b.Engine_run.accepted);
      m "pipeline.rejects_decode" "count" (fi b.Engine_run.rejects_decode);
      m "pipeline.rejects_verify" "count" (fi b.Engine_run.rejects_verify);
      m "pipeline.rejects_step" "count" (fi b.Engine_run.rejects_step);
      m "wheel.expired_per_kpkt" "expiries/kpkt" (fi b.Engine_run.timer_expired /. kp);
      m "wheel.cascaded" "count" (fi b.Engine_run.timer_cascaded) ] )

let span_mean_us tr name =
  per (fi (Spans.total_ns tr name)) (fi (Spans.count tr name)) /. 1e3

let no_socket =
  [ m "net.syscalls_per_pkt" "syscalls/pkt" 0.;
    m "net.hwm_pkts_per_syscall" "pkts/syscall" 0.;
    m "net.wakeups_per_kpkt" "wakeups/kpkt" 0.;
    m "net.drops" "count" 0.;
    m "net.send_eagain" "count" 0.;
    m "mmsg.send_us_per_call" "us" 0.;
    m "mmsg.recv_us_per_call" "us" 0. ]

let gc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let engine_workload ~workload ~seed ~seconds ~trace =
  let setup =
    match workload with
    | "engine-arq" ->
      let src = Workloads.read "specs/arq.ndsl" in
      engine_setup ~config:Pipeline.default_config ~batch:Pipeline.default_config.Pipeline.batch
        ~make_spec:(fun () -> Workloads.arq_spec src)
        (Workloads.arq_stream (Workloads.arq_pool ~seed ~payload:8))
    | _ ->
      let ipv4_src = Workloads.read "specs/ipv4.ndsl"
      and timeout_src = Workloads.read "specs/timeout.ndsl" in
      let make_spec () = Workloads.churn_spec ~ipv4_src ~timeout_src in
      let config = { Pipeline.default_config with Pipeline.max_flows = Workloads.churn_max_flows } in
      engine_setup ~config ~batch:config.Pipeline.batch ~make_spec
        (Workloads.churn_stream ~seed (make_spec ()).fmt)
  in
  (let eng, _, _, _ = setup.make () in
   Engine_run.self_test workload eng);
  let count_ok, counts = if trace then count_pass setup else (true, []) in
  (* the self-test's and count pass's engines are garbage now: without a
     compaction, whether they still count in the peak RSS would depend on
     when the major GC last ran *)
  Gc.compact ();
  let eng, spec, parse0, setup0 = setup.make () in
  let w = warmup_s seconds in
  let step () = Engine_run.window eng in
  let hist = eng.Engine_run.hist in
  ignore (run_phase ~seconds:w ~hist step);
  eng.Engine_run.record_rtt <- true;
  let measure = if trace then (seconds -. w) /. 2. else seconds -. w in
  let a = Host.sample () in
  let ph = run_phase ~seconds:measure ~hist step in
  let b = Host.sample () in
  eng.Engine_run.record_rtt <- false;
  let traced =
    if not trace then None
    else begin
      let tr = Spans.create (1 lsl 18) in
      let sp = Engine_run.register_spans tr in
      let w0 = gc_words () and g0 = (Gc.quick_stat ()).Gc.minor_collections in
      let a = Host.sample () in
      let ph = run_phase ~seconds:measure ~hist (fun () -> Engine_run.window_traced eng tr sp) in
      let b = Host.sample () in
      let words = gc_words () -. w0 and gcs = (Gc.quick_stat ()).Gc.minor_collections - g0 in
      Some (tr, sp, ph, a, b, words, gcs)
    end
  in
  let rss_mb = Host.peak_rss_mb () in
  let parse_ns, setup_ns =
    more_setups ~first:(parse0, setup0) (fun () ->
        let _, _, p, t = setup.make () in
        (p, t))
  in
  let bal = Engine_run.balance eng in
  let chk = eng.Engine_run.chk in
  Printf.printf "host %s\n" (Host.record ~io:"none" a b);
  Printf.printf "check: %s; %s\n" (Outcome.to_string chk) (Engine_run.balance_to_string bal);
  let correct = bal.Engine_run.balanced && count_ok in
  let attempted = Engine_run.sent eng and failed = Outcome.failed chk in
  match traced with
  | None -> print_result ~correct ~attempted ~failed (end_to_end ph ~setup_ns ~rss_mb)
  | Some (tr, sp, tph, ta, tb, words, gcs) ->
    let pkts = fi tph.units in
    write_trace tr ~workload ~seed;
    let untraced = ph.rate and traced_pps = tph.rate in
    Printf.printf "traced pps %.0f, untraced pps %.0f\n" traced_pps untraced;
    print_result ~correct ~attempted ~failed
      (no_socket
      @ [ m "proc.sys_us_per_pkt" "us" (per (Host.sys_s ta tb *. 1e6) pkts);
          m "proc.user_us_per_pkt" "us" (per (Host.user_s ta tb *. 1e6) pkts);
          m "slab.ingest_ns_per_pkt" "ns"
            (per
               (fi (Spans.total_ns tr sp.Engine_run.sp_ingest + Spans.total_ns tr sp.Engine_run.sp_release))
               pkts);
          m "pipeline.window_us" "us" (span_mean_us tr sp.Engine_run.sp_process);
          m "pipeline.alloc_b_per_pkt" "B/pkt" (per (words *. 8.) pkts);
          m "pipeline.minor_gcs_per_mpkt" "gcs/Mpkt" (per (fi gcs *. 1e6) pkts);
          m "wheel.poll_us_per_call" "us" (span_mean_us tr sp.Engine_run.sp_poll) ]
      @ counts @ replays spec setup.stream
      @ [ m "lang.parse_ms" "ms" (parse_ns /. 1e6);
          m "compile.ms" "ms" (compile_ms spec);
          m "trace.overhead_pct" "%" (100. *. per (untraced -. traced_pps) untraced) ])

(* ---- the socket server ---- *)

let udp_workload ~seed ~seconds ~trace =
  if Host.cores < 2 then begin
    prerr_endline "udp-arq: needs 2 cores (server and client domains)";
    exit 2
  end;
  let src = Workloads.read "specs/arq.ndsl" in
  let pool = Workloads.arq_pool ~seed ~payload:64 in
  let setup () =
    let t0 = now () in
    let spec = Workloads.arq_spec src in
    let t1 = now () in
    match Udp_arq.create_server spec with
    | Error e -> failwith ("udp-arq: " ^ e)
    | Ok srv -> (spec, srv, t1 - t0, now () - t0)
  in
  let spec, srv, parse0, setup0 = setup () in
  let port = Option.get (Net.Server.udp_port srv) in
  let phases = if trace then 3 else 2 in
  let snaps = Array.make phases None in
  let phase = Atomic.make 0 and abort = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        (* a server that dies must not leave the client waiting on it *)
        Fun.protect
          ~finally:(fun () -> Atomic.set phase phases)
          (fun () ->
            Printf.printf "server domain on cpu %d\n%!" (Udp_arq.pin_self 0);
            let k = ref 0 in
            while !k < phases && not (Atomic.get abort) do
              ignore (Net.Server.run srv);
              snaps.(!k) <- Some (Udp_arq.snapshot srv);
              incr k;
              Atomic.set phase !k
            done))
  in
  let end_phase k =
    Net.Server.request_stop srv;
    while Atomic.get phase <= k do
      Domain.cpu_relax ()
    done
  in
  (* one core each for the server and the client domain: left to the
     scheduler, the two sometimes share a core and the round trip then
     waits on time slices *)
  Printf.printf "client domain on cpu %d\n%!" (Udp_arq.pin_self 1);
  let c = Udp_arq.client ~port pool in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set abort true;
      Net.Server.request_stop srv;
      Domain.join server;
      Udp_arq.close_client c;
      Net.Server.close srv)
    (fun () ->
      let round () = Udp_arq.step c None in
      let hist = c.Udp_arq.hist in
      Udp_arq.self_test c;
      let sent0 = c.Udp_arq.sent in
      let w = warmup_s seconds in
      ignore (run_phase ~seconds:w ~hist round);
      end_phase 0;
      let measure = if trace then (seconds -. w) /. 2. else seconds -. w in
      c.Udp_arq.record_rtt <- true;
      let a = Host.sample () in
      let ph = run_phase ~seconds:measure ~hist round in
      let b = Host.sample () in
      c.Udp_arq.record_rtt <- false;
      let traced =
        if not trace then None
        else begin
          end_phase 1;
          let tr = Spans.create (1 lsl 18) in
          let sp = Udp_arq.register_spans tr in
          let a = Host.sample () in
          let otr = Some (tr, sp) in
          let ph = run_phase ~seconds:measure ~hist (fun () -> Udp_arq.step c otr) in
          let b = Host.sample () in
          Some (tr, sp, ph, a, b)
        end
      in
      Udp_arq.finish c;
      end_phase (phases - 1);
      Udp_arq.drain_strays c;
      let rss_mb = Host.peak_rss_mb () in
      let parse_ns, setup_ns =
        more_setups ~first:(parse0, setup0) (fun () ->
            let _, srv, p, t = setup () in
            Net.Server.close srv;
            (p, t))
      in
      let snap k = Option.get snaps.(k) in
      let last = snap (phases - 1) in
      let est = Net.Server.engine_stats srv in
      let rejects =
        List.fold_left
          (fun acc s -> acc + Engine.Stats.stage_rejects est (Engine.Stats.stage_index est s))
          0 [ "decode"; "verify"; "step"; "encode" ]
      in
      let chk = c.Udp_arq.chk in
      let attempted = c.Udp_arq.sent - sent0 in
      let answered = chk.Outcome.replies + chk.Outcome.wrong in
      (* every request reached the engine, and every measured request was
         answered or counted missing (an engine reject is a missing reply:
         the reference accepts every request of this workload) *)
      let correct =
        last.Udp_arq.processed = c.Udp_arq.sent && attempted = answered + chk.Outcome.missing
      in
      Printf.printf "host %s\n"
        (Host.record ~io:(if Net.Server.batched_io srv then "mmsg" else "legacy") a b);
      Printf.printf "check: %s; server processed=%d engine rejects=%d\n"
        (Outcome.to_string chk) last.Udp_arq.processed rejects;
      let failed = Outcome.failed chk in
      match traced with
      | None -> print_result ~correct ~attempted ~failed (end_to_end ph ~setup_ns ~rss_mb)
      | Some (tr, sp, tph, ta, tb) ->
        write_trace tr ~workload:"udp-arq" ~seed;
        let untraced = ph.rate and traced_pps = tph.rate in
        Printf.printf "traced pps %.0f, untraced pps %.0f\n" traced_pps untraced;
        let s0 = snap 1 and s1 = snap 2 in
        let d f = fi (f s1.Udp_arq.net - f s0.Udp_arq.net) in
        let rx = d (fun n -> n.Net.Stats.rx_pkts) and tx = d (fun n -> n.Net.Stats.tx_pkts) in
        let processed = fi (s1.Udp_arq.processed - s0.Udp_arq.processed) in
        let rt = fi tph.units in
        (* the server's windows run inside the program: slab, window and
           wheel spans come from an in-memory replay of the same packets *)
        let replay_tr = Spans.create (1 lsl 16) in
        let rsp = Engine_run.register_spans replay_tr in
        let esetup =
          engine_setup ~config:Pipeline.default_config ~batch:Udp_arq.batch
            ~make_spec:(fun () -> Workloads.arq_spec src)
            (Workloads.arq_stream pool)
        in
        let count_ok, counts = count_pass ~spans:(replay_tr, rsp) esetup in
        print_result ~correct:(correct && count_ok) ~attempted ~failed
          ([ m "net.syscalls_per_pkt" "syscalls/pkt"
               (per (d (fun n -> n.Net.Stats.syscalls)) (rx +. tx));
             m "net.hwm_pkts_per_syscall" "pkts/syscall"
               (fi s1.Udp_arq.net.Net.Stats.hwm_pkts_per_syscall);
             m "net.wakeups_per_kpkt" "wakeups/kpkt"
               (per (fi (s1.Udp_arq.loop_syscalls - s0.Udp_arq.loop_syscalls) *. 1000.) rx);
             m "net.drops" "count" (d (fun n -> n.Net.Stats.drops));
             m "net.send_eagain" "count" (d (fun n -> n.Net.Stats.send_eagain));
             m "mmsg.send_us_per_call" "us" (span_mean_us tr sp.Udp_arq.sp_send);
             m "mmsg.recv_us_per_call" "us" (span_mean_us tr sp.Udp_arq.sp_recv);
             m "proc.sys_us_per_pkt" "us" (per (Host.sys_s ta tb *. 1e6) rt);
             m "proc.user_us_per_pkt" "us" (per (Host.user_s ta tb *. 1e6) rt);
             m "slab.ingest_ns_per_pkt" "ns"
               (per
                  (fi
                     (Spans.total_ns replay_tr rsp.Engine_run.sp_ingest
                     + Spans.total_ns replay_tr rsp.Engine_run.sp_release))
                  (fi count_pass_packets));
             m "pipeline.window_us" "us" (span_mean_us replay_tr rsp.Engine_run.sp_process);
             m "pipeline.alloc_b_per_pkt" "B/pkt"
               (per ((s1.Udp_arq.words -. s0.Udp_arq.words) *. 8.) processed);
             m "pipeline.minor_gcs_per_mpkt" "gcs/Mpkt"
               (per (fi (s1.Udp_arq.minor_gcs - s0.Udp_arq.minor_gcs) *. 1e6) processed);
             m "wheel.poll_us_per_call" "us" (span_mean_us replay_tr rsp.Engine_run.sp_poll) ]
          @ counts @ replays spec esetup.stream
          @ [ m "lang.parse_ms" "ms" (parse_ns /. 1e6);
              m "compile.ms" "ms" (compile_ms spec);
              m "trace.overhead_pct" "%" (100. *. per (untraced -. traced_pps) untraced) ]))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME udp-arq | engine-arq | engine-ipv4-churn");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  if !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "bench: --seconds must be positive and --trace 0 or 1";
    exit 2
  end;
  Printf.printf "workload %s seed %d seconds %g trace %d\n%!" !workload !seed !seconds !trace;
  match !workload with
  | "udp-arq" -> udp_workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | "engine-arq" | "engine-ipv4-churn" ->
    engine_workload ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  | w ->
    prerr_endline ("bench: unknown workload " ^ w);
    exit 2
