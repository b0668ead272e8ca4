(* Primary -> backup replication stream.

   The service's analogue of the Oplog merge discipline: a primary
   serializes every state transition it performs into sequenced entries
   and ships them (batched per epoch flush) to its replica group; a
   backup applies them in sequence order and drops duplicates, so the
   stream is idempotent under retransmission and a promoted backup's
   state is exactly the flushed prefix of its dead primary's history.

   One [t] serves both roles: a primary allocates from [next_seq] (and
   never applies), a backup tracks the highest [applied] sequence (and
   never allocates).  On promotion the backup seeds its allocator from
   what it applied; on re-join a snapshot overwrites [applied]. *)

type op =
  | Install of { key : int; value : int; ver : int; wts : int; rts : int }
      (* absolute key state: idempotent by construction *)
  | Lease_ext of { key : int; rts : int }
  | Prep of { txid : int; key : int; prop : int; rid : int; peer : int; coord : bool }
      (* key locked for 2PC; [peer] = other side's group *)
  | Decide of { txid : int; commit : bool; ts : int; ver_b : int }
  | Done of { rid : int; ok : bool; delta : int }
      (* request resolved; [delta] = its contribution to the value sum *)
  | Acked of { txid : int }  (* participant acknowledged the decision *)

type entry = { seq : int; op : op }

type t = {
  mutable next_seq : int;  (* primary: last allocated sequence *)
  mutable shipped : int;
  mutable applied : int;  (* backup: highest sequence applied *)
  mutable applied_n : int;
  mutable dups : int;
}

let create () = { next_seq = 0; shipped = 0; applied = 0; applied_n = 0; dups = 0 }

let next t op =
  t.next_seq <- t.next_seq + 1;
  t.shipped <- t.shipped + 1;
  { seq = t.next_seq; op }

(* [false] = duplicate (already applied): drop without re-applying. *)
let admit t e =
  if e.seq <= t.applied then begin
    t.dups <- t.dups + 1;
    false
  end
  else begin
    t.applied <- e.seq;
    t.applied_n <- t.applied_n + 1;
    true
  end

(* Promotion: continue the stream where the flushed prefix ended. *)
let seed_from_applied t = t.next_seq <- Int.max t.next_seq t.applied

(* Re-join: a snapshot put the store at sequence [seq]. *)
let set_applied t seq = t.applied <- seq

(* Stream position: the snapshot a re-joining backup installs is
   "state as of [position]", so replay below it is duplicate. *)
let position t = t.next_seq
let shipped t = t.shipped
let applied_seq t = t.applied
let applied t = t.applied_n
let dups t = t.dups
