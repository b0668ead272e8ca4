(** Silo-style epoch batches for group commit.

    Collects members plus the running max of their proposed timestamps;
    the caller arms one close timer per epoch and commit-waits the joint
    proposal once for the whole batch instead of once per member. *)

type 'a t

val create : epoch_ns:int -> 'a t
(** [epoch_ns = 0] disables batching (callers treat every member as its
    own epoch).  Raises [Invalid_argument] on a negative interval. *)

val enabled : 'a t -> bool

val add : 'a t -> prop:int -> 'a -> bool
(** [true] = this member opened the epoch; the caller arms the close
    timer, [epoch_ns] from now. *)

val close : 'a t -> (int * 'a list) option
(** [(joint_proposal, members)] in add order; [None] if no epoch open. *)

val epochs : 'a t -> int
val total_members : 'a t -> int
