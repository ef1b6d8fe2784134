(* The benchmark's own wire arithmetic: the RFC 1071 Internet checksum,
   packet writers for the two formats the workloads send, and the reply
   check.  None of it comes from the library, so the output check shares
   no code with the program it checks. *)

(* Ones'-complement checksum of [b.(0 .. len-1)] with the 16-bit field at
   the even offset [skip] read as zero. *)
let checksum b ~len ~skip =
  let s = ref 0 in
  let i = ref 0 in
  while !i + 1 < len do
    if !i <> skip then s := !s + Bytes.get_uint16_be b !i;
    i := !i + 2
  done;
  if !i < len then s := !s + (Bytes.get_uint8 b !i lsl 8);
  let s = ref !s in
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

let set_checksum b ~len ~at = Bytes.set_uint16_be b at (checksum b ~len ~skip:at)

(* [a.(off .. off+len-1)] and [b.(off ..)] hold the same bytes. *)
let range_equal a b ~off ~len =
  let stop = off + len in
  let i = ref off in
  let ok = ref true in
  while !ok && !i + 8 <= stop do
    ok := Int64.equal (Bytes.get_int64_ne a !i) (Bytes.get_int64_ne b !i);
    i := !i + 8
  done;
  while !ok && !i < stop do
    ok := Bytes.get a !i = Bytes.get b !i;
    incr i
  done;
  !ok

(* A patched reply is exactly the request with one byte field set to
   [value] and the checksum at [cks] recomputed over the first [cover]
   bytes.  The reply's checksum is recomputed here from the reply bytes,
   which equal the patched request once every other byte has matched. *)
let patched_reply_ok ~req ~len ~reply ~rlen ~field ~value ~cks ~cover =
  rlen = len
  && Bytes.get_uint8 reply field = value
  && range_equal req reply ~off:0 ~len:field
  && range_equal req reply ~off:(field + 1) ~len:(cks - field - 1)
  && range_equal req reply ~off:(cks + 2) ~len:(len - cks - 2)
  && Bytes.get_uint16_be reply cks = checksum reply ~len:cover ~skip:cks

(* ---- specs/arq.ndsl, format arq_packet ----
   seq:u8 | kind:u8 (data 0, ack 1) | len:u16 | chk:u16 over message |
   payload *)

let arq_header = 6

let arq_data ~seq payload =
  let n = String.length payload in
  let b = Bytes.create (arq_header + n) in
  Bytes.set_uint8 b 0 seq;
  Bytes.set_uint8 b 1 0;
  Bytes.set_uint16_be b 2 n;
  Bytes.blit_string payload 0 b arq_header n;
  set_checksum b ~len:(arq_header + n) ~at:4;
  b

(* The ARQ flight answers a data frame with kind := ack. *)
let arq_reply_ok ~req ~len ~reply ~rlen =
  patched_reply_ok ~req ~len ~reply ~rlen ~field:1 ~value:1 ~cks:4 ~cover:len

(* ---- specs/ipv4.ndsl, format ipv4 (no options) ---- *)

let ipv4_header = 20
let ipv4_ttl_reply = 64

(* Write a 20-byte header for a [size]-byte datagram into [b]; the payload
   bytes [20 .. size-1] are left as they are. *)
let ipv4_fill b ~size ~id ~ttl ~protocol ~source =
  Bytes.set_uint8 b 0 0x45;
  Bytes.set_uint8 b 1 0;
  Bytes.set_uint16_be b 2 size;
  Bytes.set_uint16_be b 4 id;
  Bytes.set_uint16_be b 6 0x4000;
  Bytes.set_uint8 b 8 ttl;
  Bytes.set_uint8 b 9 protocol;
  Bytes.set_int32_be b 12 (Int32.of_int (0x0A000000 lor source));
  Bytes.set_int32_be b 16 0xC0A80001l;
  set_checksum b ~len:ipv4_header ~at:10

(* The churn flight answers with ttl := 64; the header checksum covers
   the IHL-declared header only. *)
let ipv4_reply_ok ~req ~len ~reply ~rlen =
  len >= ipv4_header
  &&
  let cover = (Bytes.get_uint8 req 0 land 0xF) * 4 in
  cover >= ipv4_header && cover <= len
  && patched_reply_ok ~req ~len ~reply ~rlen ~field:8 ~value:ipv4_ttl_reply
       ~cks:10 ~cover
