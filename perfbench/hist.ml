(* A fixed-size log-linear latency histogram over nanoseconds: exact below
   [sub] ns, then [sub] equal buckets per power of two (0.8% wide), up to
   2^42 ns.  Its size never depends on the sample count, so a long run's
   memory is the program's, not the benchmark's. *)

let sub_bits = 7
let sub = 1 lsl sub_bits
let max_exp = 42
let n_buckets = (max_exp - sub_bits + 2) * sub

type t = { counts : int array; mutable total : int }

let create () = { counts = Array.make n_buckets 0; total = 0 }

let clear t =
  Array.fill t.counts 0 n_buckets 0;
  t.total <- 0

let rec msb v e = if v lsr (e + 1) = 0 then e else msb v (e + 1)

let index v =
  if v < sub then max 0 v
  else
    let e = min max_exp (msb v sub_bits) in
    let v = min v ((1 lsl (e + 1)) - 1) in
    ((e - sub_bits + 1) * sub) + ((v lsr (e - sub_bits)) - sub)

(* [lo, lo + width) of bucket [i]. *)
let bounds i =
  if i < sub then (float_of_int i, 1.)
  else
    let e = (i / sub) + sub_bits - 1 in
    let w = 1 lsl (e - sub_bits) in
    (float_of_int ((sub + (i mod sub)) * w), float_of_int w)

let add_n t v n =
  let i = index v in
  Array.unsafe_set t.counts i (Array.unsafe_get t.counts i + n);
  t.total <- t.total + n

let add t v = add_n t v 1

(* The [q]-quantile in ns, interpolated within its bucket. *)
let quantile t q =
  if t.total = 0 then nan
  else begin
    let rank = q *. float_of_int (t.total - 1) in
    let rec go i cum =
      let c = t.counts.(i) in
      if c > 0 && float_of_int (cum + c) > rank then begin
        let lo, w = bounds i in
        lo +. (w *. ((rank -. float_of_int cum +. 0.5) /. float_of_int c))
      end
      else go (i + 1) (cum + c)
    in
    go 0 0
  end

