(* What each workload serves (spec, machine, flight) and the inputs it
   sends, generated from the seed.  See README.md for the make-up of the
   inputs and why each workload exists. *)

open Netdsl
module Flight = Engine.Flight

type spec = {
  fmt : Desc.t;
  machine : Machine.t;
  flight : Flight.spec;
  patch_field : string;
  patch_value : int;
}

let read path = In_channel.with_open_bin path In_channel.input_all

let parse src =
  match Lang.Parser.parse_string src with
  | Ok p -> p
  | Error e -> failwith (Format.asprintf "spec does not parse: %a" Lang.Parser.pp_error e)

let find what = function Some x -> x | None -> failwith ("spec lacks " ^ what)

(* The e15/e20 ARQ flight over specs/arq.ndsl's receiver: verify [seq],
   classify data as the receiver's [recv_ok], answer by patching [kind]
   to ack. *)
let arq_flight =
  Flight.(
    spec
      ~verify:(Cmp (Lt, Field "seq", Const 256L))
      ~classify:[ { ev_when = Cmp (Eq, Field "kind", Const 0L); ev_name = "recv_ok" } ]
      ~flow_key:"seq"
      ~respond:
        [ { re_when = Cmp (Eq, Field "kind", Const 0L);
            re_set = [ { set_field = "kind"; set_to = Const 1L } ] } ]
      ())

let arq_spec src =
  let p = parse src in
  {
    fmt = find "format arq_packet" (Lang.Parser.find_format p "arq_packet");
    machine = find "machine receiver" (Lang.Parser.find_machine p "receiver");
    flight = arq_flight;
    patch_field = "kind";
    patch_value = 1;
  }

let proto_send = 17
let proto_ack = 6

(* IPv4 under specs/timeout.ndsl's swt_sender: protocol 17 is a send,
   protocol 6 an ack, flows keyed by source; a zero TTL fails verify;
   every verified packet is answered with ttl := 64. *)
let churn_flight =
  Flight.(
    spec
      ~verify:(Cmp (Gt, Field "ttl", Const 0L))
      ~classify:
        [ { ev_when = Cmp (Eq, Field "protocol", Const (Int64.of_int proto_send));
            ev_name = "send" };
          { ev_when = Cmp (Eq, Field "protocol", Const (Int64.of_int proto_ack));
            ev_name = "ack" } ]
      ~flow_key:"source"
      ~respond:
        [ { re_when = All [];
            re_set =
              [ { set_field = "ttl";
                  set_to = Const (Int64.of_int Wire.ipv4_ttl_reply) } ] } ]
      ())

let churn_spec ~ipv4_src ~timeout_src =
  let fmt = find "format ipv4" (Lang.Parser.find_format (parse ipv4_src) "ipv4") in
  let machine =
    find "machine swt_sender" (Lang.Parser.find_machine (parse timeout_src) "swt_sender")
  in
  { fmt; machine; flight = churn_flight; patch_field = "ttl"; patch_value = Wire.ipv4_ttl_reply }

let churn_max_flows = 16_384

(* ---- ARQ requests: 256 flows (seq), fixed payload size ---- *)

let arq_pool_size = 4096

let arq_pool ~seed ~payload =
  let rng = Prng.of_int (seed lxor 0xA59) in
  Array.init arq_pool_size (fun i ->
      Wire.arq_data ~seq:(i land 0xFF)
        (String.init payload (fun _ -> Char.chr (Prng.int rng 256))))

let arq_stream pool =
  {
    Engine_run.length = Array.length pool;
    fill =
      (fun buf p ->
        let b = pool.(p) in
        let n = Bytes.length b in
        Bytes.blit b 0 buf 0 n;
        n);
    cls = (fun _ -> Engine_run.cls_step);
    key = (fun p -> Bytes.get_uint8 pool.(p) 0);
    event = (fun _ -> 0);
    n_keys = 256;
    machine = Ref_flows.receiver;
    reply_ok = Wire.arq_reply_ok;
  }

(* ---- IPv4 churn: send/ack exchanges over 65 536 sources ----

   A cycle of [churn_length] datagrams.  Every fourth position holds a
   structure-aware mutant.  The others carry exchanges: a send from a
   random source, answered by an ack 16..2047 positions later; 1/16 of
   exchanges go silent (their timers fire, retransmit and give up), 1/32
   also repeat the send while it awaits its ack, and 1/32 of fresh
   positions carry a stray ack.  A TTL of zero (1/32) fails verify. *)

let churn_length = 1 lsl 18
let n_sources = 65_536
let n_mutants = 4096

(* entry = source | ttl << 16 | protocol << 24 | size << 32 | (mutant + 1) << 43 *)
let pack ~source ~ttl ~protocol ~size =
  source lor (ttl lsl 16) lor (protocol lsl 24) lor (size lsl 32)

let churn_stream ~seed fmt =
  let rng = Prng.of_int (seed lxor 0xC4E) in
  let size () =
    match Prng.int rng 10 with
    | 0 | 1 | 2 | 3 | 4 -> 20 + Prng.int rng 45
    | 5 | 6 | 7 -> 65 + Prng.int rng 512
    | _ -> 577 + Prng.int rng 924
  in
  let ttl () = if Prng.int rng 32 = 0 then 0 else 1 + Prng.int rng 255 in
  let payload = Bytes.init 1500 (fun _ -> Char.chr (Prng.int rng 256)) in
  let build e =
    let size = (e lsr 32) land 0x7FF in
    let b = Bytes.create size in
    Bytes.blit payload 0 b Wire.ipv4_header (size - Wire.ipv4_header);
    Wire.ipv4_fill b ~size ~id:(e land 0xFFFF) ~ttl:((e lsr 16) land 0xFF)
      ~protocol:((e lsr 24) land 0xFF) ~source:(e land 0xFFFF);
    b
  in
  (* mutants, classified by the allocating codec *)
  let plan = Check.Mutate.plan fmt in
  let rec mutant () =
    let base =
      Bytes.to_string
        (build
           (pack ~source:(Prng.int rng n_sources) ~ttl:(ttl ())
              ~protocol:(if Prng.bool rng then proto_send else proto_ack)
              ~size:(size ())))
    in
    let m = Check.Mutate.apply (Check.Mutate.random plan rng base) base in
    if m = "" || String.length m > 2048 then mutant () else m
  in
  let mutants = Array.init n_mutants (fun _ -> mutant ()) in
  let mutant_cls =
    Array.map
      (fun m ->
        match Codec.decode fmt m with
        | Error _ -> Engine_run.cls_decode_reject
        | Ok _ ->
          let proto = Char.code m.[9] in
          if Char.code m.[8] = 0 then Engine_run.cls_verify_reject
          else if proto = proto_send || proto = proto_ack then Engine_run.cls_step
          else Engine_run.cls_pass)
      mutants
  in
  (* flows are keyed by the 32-bit source: 10.0.x.y is key id x.y, and
     every other source a mutant carries gets an id of its own past them *)
  let foreign = Hashtbl.create 64 in
  let key_id source =
    if source lsr 16 = 0x0A00 then source land 0xFFFF
    else
      match Hashtbl.find_opt foreign source with
      | Some k -> k
      | None ->
        let k = n_sources + Hashtbl.length foreign in
        Hashtbl.add foreign source k;
        k
  in
  let event_of proto = if proto = proto_send then 0 else 1 in
  let mutant_key =
    Array.mapi
      (fun i m ->
        if mutant_cls.(i) <> Engine_run.cls_step then -1
        else key_id (Int32.to_int (String.get_int32_be m 12) land 0xFFFF_FFFF))
      mutants
  in
  let mutant_event =
    Array.mapi
      (fun i m -> if mutant_cls.(i) <> Engine_run.cls_step then -1 else event_of (Char.code m.[9]))
      mutants
  in
  (* the exchange schedule *)
  let entries = Array.make churn_length (-1) in
  let is_mutant p = p land 3 = 3 in
  let place q e =
    let q = ref q in
    while !q < churn_length && (is_mutant !q || entries.(!q) >= 0) do
      incr q
    done;
    if !q < churn_length then entries.(!q) <- e
  in
  for p = 0 to churn_length - 1 do
    if is_mutant p then entries.(p) <- (Prng.int rng n_mutants + 1) lsl 43
    else if entries.(p) < 0 then begin
      let source = Prng.int rng n_sources in
      let r = Prng.int rng 64 in
      if r < 2 then
        entries.(p) <- pack ~source ~ttl:(ttl ()) ~protocol:proto_ack ~size:(size ())
      else begin
        entries.(p) <- pack ~source ~ttl:(ttl ()) ~protocol:proto_send ~size:(size ());
        let k = Prng.int rng 64 in
        if k >= 4 then begin
          if k < 6 then
            place (p + 1 + Prng.int rng 256)
              (pack ~source ~ttl:(ttl ()) ~protocol:proto_send ~size:(size ()));
          place (p + 16 + Prng.int rng 2032)
            (pack ~source ~ttl:(ttl ()) ~protocol:proto_ack ~size:(size ()))
        end
      end
    end
  done;
  let cls =
    Bytes.init churn_length (fun p ->
        let e = entries.(p) in
        let m = (e lsr 43) - 1 in
        Char.chr
          (if m >= 0 then mutant_cls.(m)
           else if (e lsr 16) land 0xFF = 0 then Engine_run.cls_verify_reject
           else Engine_run.cls_step))
  in
  let fill buf p =
    let e = Array.unsafe_get entries p in
    let m = (e lsr 43) - 1 in
    if m >= 0 then begin
      let s = mutants.(m) in
      let n = String.length s in
      Bytes.blit_string s 0 buf 0 n;
      n
    end
    else begin
      let size = (e lsr 32) land 0x7FF in
      Bytes.blit payload 0 buf Wire.ipv4_header (size - Wire.ipv4_header);
      Wire.ipv4_fill buf ~size ~id:(p land 0xFFFF) ~ttl:((e lsr 16) land 0xFF)
        ~protocol:((e lsr 24) land 0xFF) ~source:(e land 0xFFFF);
      size
    end
  in
  {
    Engine_run.length = churn_length;
    fill;
    cls = (fun p -> Char.code (Bytes.unsafe_get cls p));
    key =
      (fun p ->
        let e = entries.(p) in
        let m = (e lsr 43) - 1 in
        if m >= 0 then mutant_key.(m) else e land 0xFFFF);
    event =
      (fun p ->
        let e = entries.(p) in
        let m = (e lsr 43) - 1 in
        if m >= 0 then mutant_event.(m) else event_of ((e lsr 24) land 0xFF));
    n_keys = n_sources + Hashtbl.length foreign;
    machine = Ref_flows.swt_sender;
    reply_ok = Wire.ipv4_reply_ok;
  }
