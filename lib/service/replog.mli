(** Primary → backup replication stream.

    Sequenced, idempotent state-transition entries, the service's
    analogue of the Oplog merge discipline: a primary allocates entries
    with {!next} and ships them batched per epoch flush; a backup
    {!admit}s them in sequence order, dropping duplicates, so a promoted
    backup's state is exactly the flushed prefix of its dead primary's
    history. *)

type op =
  | Install of { key : int; value : int; ver : int; wts : int; rts : int }
      (** absolute key state: idempotent by construction *)
  | Lease_ext of { key : int; rts : int }
  | Prep of { txid : int; key : int; prop : int; rid : int; peer : int; coord : bool }
      (** key locked for 2PC; [peer] = the other side's group *)
  | Decide of { txid : int; commit : bool; ts : int; ver_b : int }
  | Done of { rid : int; ok : bool; delta : int }
      (** request resolved; [delta] = its contribution to the value sum *)
  | Acked of { txid : int }  (** participant acknowledged the decision *)

type entry = { seq : int; op : op }

type t

val create : unit -> t

val next : t -> op -> entry
(** Primary side: allocate the next sequence number. *)

val admit : t -> entry -> bool
(** Backup side: [false] = duplicate (already applied), drop it. *)

val seed_from_applied : t -> unit
(** Promotion: continue allocating where the applied prefix ended. *)

val set_applied : t -> int -> unit
(** Re-join: a snapshot put the store at this sequence. *)

val position : t -> int
(** Primary's stream position (last allocated sequence) — what a
    snapshot stamps so the joiner can drop replay below it. *)

val shipped : t -> int
val applied_seq : t -> int
val applied : t -> int
val dups : t -> int
