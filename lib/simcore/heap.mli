(** Array-based 4-ary min-heap keyed by [(time, seq)] pairs.

    The sequence number gives FIFO order to events scheduled for the same
    virtual instant, which keeps the simulation fully deterministic.

    Keys live in flat [int] arrays separate from the payloads, so sift
    comparisons never dereference a payload, and the 4-ary shape halves
    the tree depth of a binary heap — both matter because the scheduler
    pushes and pops one entry per simulated event. *)

type 'a t = private {
  mutable times : int array;
  mutable seqs : int array;
  mutable data : 'a array;
  mutable len : int;  (** entries [0 .. len-1] are live; index 0 is the minimum *)
  mutable next_seq : int;  (** the sequence number {!push} takes next *)
}
(** Readable so a store built on the heap ({!Equeue}'s far tail) can peek
    at the minimum with plain loads; only this module writes it. *)

val create : unit -> 'a t
val is_empty : 'a t -> bool
val size : 'a t -> int

val push : 'a t -> time:int -> 'a -> unit
(** Insert with the next sequence number. *)

val push_seq : 'a t -> time:int -> seq:int -> 'a -> unit
(** Insert under a sequence number the caller owns; [next_seq] is not
    touched.  Entries still pop in ascending [(time, seq)] order. *)

val drop : 'a t -> unit
(** Remove the minimum entry; read it first through [times.(0)],
    [seqs.(0)] and [data.(0)].  The heap must not be empty. *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the minimum [(time, payload)]. *)

val pop_exn : 'a t -> 'a
(** Remove and return the minimum payload without allocating.
    Raises [Invalid_argument] on an empty heap — guard with {!is_empty};
    the scheduler drain loop uses this to avoid an option + pair
    allocation per event. *)

val min_time : 'a t -> int option

val next_time : 'a t -> int
(** Time key of the minimum entry, or [max_int] when empty — the
    allocation-free variant of {!min_time} for the per-operation horizon
    check. *)
