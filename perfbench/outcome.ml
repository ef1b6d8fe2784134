(* Outcome counts of the independent output check, shared by all
   workloads.  An operation is one request; it fails when its reply is
   wrong, when it gets a reply the reference says it must not get, or when
   a reply it must get never comes.  A reply that answers no request is a
   failed operation of its own. *)

type t = {
  mutable replies : int;  (** replies equal to the expected reply *)
  mutable wrong : int;  (** replies that differ from the expected reply *)
  mutable unexpected : int;  (** replies to a packet the reference rejects *)
  mutable missing : int;  (** requests that must be answered and were not *)
  mutable stray : int;  (** replies to no outstanding request *)
}

let create () = { replies = 0; wrong = 0; unexpected = 0; missing = 0; stray = 0 }
let failed t = t.wrong + t.unexpected + t.missing + t.stray

let to_string t =
  Printf.sprintf "replies=%d wrong=%d unexpected=%d missing=%d stray=%d"
    t.replies t.wrong t.unexpected t.missing t.stray

(* The self-test every run starts with: a planted wrong reply byte and a
   planted stray reply must each count as one failed operation. *)
let self_test name t =
  if t.wrong = 1 && t.stray = 1 && failed t = 2 then
    Printf.printf "self-test %s: planted wrong byte and stray reply both caught\n" name
  else begin
    Printf.printf "self-test %s FAILED: %s\n" name (to_string t);
    exit 3
  end
