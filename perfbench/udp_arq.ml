(* The socket workload: a single-worker [Net.Server] on the batched I/O
   path, configured as [netdsl serve] configures it (fused, [Auto] I/O,
   batch 32), serving the ARQ flight on its own domain.  The calling
   domain is the client: a closed loop over a connected UDP socket that
   keeps one I/O batch (32 requests) outstanding, refilling with one
   [sendmmsg] whatever each [recvmmsg] drained, waiting in [epoll].  Two
   busy domains in all. *)

open Netdsl
module Server = Net.Server
module Mmsg = Net.Mmsg

let batch = 32
let now = Mmsg.now_ns

external pin_self : int -> int = "perfbench_pin_self" [@@noalloc]

(* Server-side readings, taken on the server's domain between runs. *)
type snap = {
  words : float;  (** words this domain allocated *)
  minor_gcs : int;
  net : Net.Stats.t;
  loop_syscalls : int;  (** the event-loop row: readiness waits *)
  processed : int;
}

let snapshot srv =
  let minor, promoted, major = Gc.counters () in
  {
    words = minor +. major -. promoted;
    minor_gcs = (Gc.quick_stat ()).Gc.minor_collections;
    net = Server.net_stats srv;
    loop_syscalls =
      (match List.assoc_opt "event loop" (Server.listener_stats srv) with
      | Some st -> st.Net.Stats.syscalls
      | None -> 0);
    processed = Server.processed srv;
  }

let create_server spec =
  Server.create ~mode:Engine.Pipeline.Fused ~machine:spec.Workloads.machine ~signals:false
    ~io:Server.Auto ~io_batch:batch ~flight:spec.Workloads.flight
    ~listeners:[ Server.Udp { host = "127.0.0.1"; port = 0 } ]
    spec.Workloads.fmt

type client = {
  fd : Unix.file_descr;
  mm : Mmsg.t;
  ep : Mmsg.Epoll.ep;
  tags : int array;
  pool : Bytes.t array;
  pool_lens : int array;
  no_addr : int array;
  rx_bufs : Bytes.t array;
  rx_lens : int array;
  outstanding : int array;  (** seq -> pool index awaiting its reply, or -1 *)
  sent_at : int array;  (** seq -> when its request was sent (ns) *)
  mutable in_flight : int;
  mutable steps : int;
  chk : Outcome.t;
  hist : Hist.t;
  mutable record_rtt : bool;
  mutable next : int;
  mutable sent : int;
  mutable plant_wrong : bool;
}

let client ~port pool =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_DGRAM 0 in
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.set_nonblock fd;
  let ep = Mmsg.Epoll.create 1 in
  Mmsg.Epoll.add ep fd 0;
  let n = Array.length pool in
  {
    fd;
    mm = Mmsg.create n;
    ep;
    tags = Array.make 1 0;
    pool;
    pool_lens = Array.map Bytes.length pool;
    no_addr = Array.make n (-1);
    rx_bufs = Array.init batch (fun _ -> Bytes.create 2048);
    rx_lens = Array.make batch 0;
    outstanding = Array.make 256 (-1);
    sent_at = Array.make 256 0;
    in_flight = 0;
    steps = 0;
    chk = Outcome.create ();
    hist = Hist.create ();
    record_rtt = false;
    next = 0;
    sent = 0;
    plant_wrong = false;
  }

let close_client c =
  Mmsg.Epoll.close c.ep;
  Unix.close c.fd

(* Check one received datagram against the request its seq names;
   returns whether it answered an outstanding request. *)
let on_reply c k ~t_recv =
  let reply = c.rx_bufs.(k) and rlen = c.rx_lens.(k) in
  if c.plant_wrong && rlen > 0 then begin
    c.plant_wrong <- false;
    Bytes.set_uint8 reply (rlen - 1) (Bytes.get_uint8 reply (rlen - 1) lxor 1)
  end;
  let idx = if rlen > 0 then c.outstanding.(Bytes.get_uint8 reply 0) else -1 in
  if idx < 0 then begin
    c.chk.Outcome.stray <- c.chk.Outcome.stray + 1;
    false
  end
  else begin
    let seq = Bytes.get_uint8 reply 0 in
    c.outstanding.(seq) <- -1;
    if Wire.arq_reply_ok ~req:c.pool.(idx) ~len:c.pool_lens.(idx) ~reply ~rlen then
      c.chk.Outcome.replies <- c.chk.Outcome.replies + 1
    else c.chk.Outcome.wrong <- c.chk.Outcome.wrong + 1;
    if c.record_rtt then Hist.add c.hist (t_recv - c.sent_at.(seq));
    true
  end

(* Spans of the client's calls into [Net.Mmsg]. *)
type spans = { sp_step : int; sp_send : int; sp_recv : int; sp_wait : int }

let register_spans tr =
  let sp_step = Spans.register tr "client.step" in
  {
    sp_step;
    sp_send = Spans.register ~parent:sp_step tr "mmsg.send";
    sp_recv = Spans.register ~parent:sp_step tr "mmsg.recv";
    sp_wait = Spans.register ~parent:sp_step tr "epoll.wait";
  }

let quiet_limit_ms = 2000

(* Send [n] requests from the pool, starting at the next pool index. *)
let send c tr ~root ~req n =
  let off = ref 0 in
  while !off < n do
    let base = c.next in
    let k = min (n - !off) (Array.length c.pool - base) in
    for j = 0 to k - 1 do
      c.outstanding.((base + j) land 0xFF) <- base + j
    done;
    let t0 = now () in
    let r =
      Mmsg.send c.mm c.fd ~bufs:c.pool ~lens:c.pool_lens ~addr_idx:c.no_addr ~off:base ~n:k
    in
    (match tr with
    | Some (tr, sp) -> Spans.span tr sp.sp_send ~parent:root ~req ~start:t0 ~stop:(now ())
    | None -> ());
    if r > 0 then begin
      for j = 0 to r - 1 do
        c.sent_at.((base + j) land 0xFF) <- t0
      done;
      for j = r to k - 1 do
        c.outstanding.((base + j) land 0xFF) <- -1
      done;
      c.next <- (base + r) mod Array.length c.pool;
      c.sent <- c.sent + r;
      c.in_flight <- c.in_flight + r;
      off := !off + r
    end
    else begin
      for j = 0 to k - 1 do
        c.outstanding.((base + j) land 0xFF) <- -1
      done;
      if r = Mmsg.eagain then ignore (Mmsg.Epoll.wait c.ep ~tags:c.tags ~timeout_ms:1)
      else failwith "udp-arq: sendmmsg failed"
    end
  done

(* Wait for replies and check them; returns how many answered an
   outstanding request.  After [quiet_limit_ms] of silence every
   outstanding request is missing. *)
let collect c tr ~root ~req =
  let got = ref 0 and quiet = ref 0 in
  while !got = 0 && c.in_flight > 0 do
    let s0 = now () in
    let r = Mmsg.recv c.mm c.fd ~bufs:c.rx_bufs ~lens:c.rx_lens ~base:0 ~count:batch in
    let t = now () in
    (match tr with
    | Some (tr, sp) -> Spans.span tr sp.sp_recv ~parent:root ~req ~start:s0 ~stop:t
    | None -> ());
    if r > 0 then begin
      for k = 0 to r - 1 do
        if on_reply c k ~t_recv:t then incr got
      done;
      c.in_flight <- c.in_flight - !got
    end
    else begin
      let w = Mmsg.Epoll.wait c.ep ~tags:c.tags ~timeout_ms:1 in
      (match tr with
      | Some (tr, sp) -> Spans.span tr sp.sp_wait ~parent:root ~req ~start:t ~stop:(now ())
      | None -> ());
      if w > 0 then quiet := 0
      else begin
        incr quiet;
        if !quiet >= quiet_limit_ms then begin
          c.chk.Outcome.missing <- c.chk.Outcome.missing + c.in_flight;
          Array.fill c.outstanding 0 256 (-1);
          c.in_flight <- 0
        end
      end
    end
  done;
  !got

(* One closed-loop step: collect replies, then send as many new
   requests as were answered, keeping [batch] outstanding.  [tr] is the
   trace and its span names, [None] on untraced runs. *)
let step c tr =
  let req = c.steps in
  c.steps <- req + 1;
  let t0 = match tr with Some _ -> now () | None -> 0 in
  let root =
    match tr with
    | Some (tr, sp) -> Spans.open_ tr sp.sp_step ~parent:(-1) ~req ~start:t0
    | None -> -1
  in
  if c.in_flight < batch then send c tr ~root ~req (batch - c.in_flight);
  let got = collect c tr ~root ~req in
  (match tr with
  | Some (tr, sp) -> Spans.close tr sp.sp_step root ~start:t0 ~stop:(now ())
  | None -> ());
  got

(* Collect what is still outstanding, sending nothing new. *)
let finish c =
  while c.in_flight > 0 do
    ignore (collect c None ~root:(-1) ~req:0)
  done

(* After the server has stopped: anything left on the socket answers no
   request. *)
let drain_strays c =
  let rec go quiet =
    if quiet < 50 then begin
      let r = Mmsg.recv c.mm c.fd ~bufs:c.rx_bufs ~lens:c.rx_lens ~base:0 ~count:batch in
      if r > 0 then begin
        c.chk.Outcome.stray <- c.chk.Outcome.stray + r;
        go 0
      end
      else begin
        ignore (Mmsg.Epoll.wait c.ep ~tags:c.tags ~timeout_ms:1);
        go (quiet + 1)
      end
    end
  in
  go 0

(* The checker on planted faults: a reply with a flipped byte, then a
   datagram that answers no request, each one failed operation. *)
let self_test c =
  c.plant_wrong <- true;
  while c.plant_wrong do
    ignore (step c None)
  done;
  finish c;
  Bytes.blit c.pool.(0) 0 c.rx_bufs.(0) 0 c.pool_lens.(0);
  c.rx_lens.(0) <- c.pool_lens.(0);
  ignore (on_reply c 0 ~t_recv:0);
  Outcome.self_test "udp-arq" c.chk;
  let z = c.chk in
  z.Outcome.replies <- 0;
  z.Outcome.wrong <- 0;
  z.Outcome.stray <- 0
