(** Deterministic session workload generator for the service layer.

    Produces {e traffic}, not execution: the service layer asks when the
    next client session opens, what each session's requests are and when
    it hangs up.  All randomness flows through split {!Ordo_util.Rng}
    streams rooted in one seed — the arrival process from one stream,
    each session from its own sub-stream — so the generated history is
    byte-identical however the run is parallelised.

    Shapes modelled: skewed multi-tenant traffic (per-tenant Zipf skew
    and read/cross-shard mix), diurnal load ramps (thinned-Poisson
    arrivals, 1x → 3x → 1x intensity), a hot-key storm (a timed window
    hijacking a slice of all ops onto one seeded key), and connection
    churn (a fraction of completed sessions reconnect as fresh ones). *)

type op =
  | Get of int
  | Put of int
  | Transfer of int * int
      (** Cross-partition: the two keys differ mod [partitions]. *)

val keys : int
(** Size of the key space every session draws from. *)

val fallback_partner : partitions:int -> int -> int -> int
(** [fallback_partner ~partitions a r]: the [Transfer] partner of key [a]
    when no popular key turned up, for a draw [0 <= r <= partitions - 2];
    always on another shard than [a] ([mod partitions]). *)

(** The tenant mix, storm schedule, think time, session length and churn
    rate are fixed; a profile sets only the run's size and shard count. *)
type profile = {
  sessions : int;  (** arrival cap (reconnects are extra, on top) *)
  partitions : int;  (** shard count; [Transfer] partners differ mod this *)
  dur_ns : int;  (** arrival window; open sessions may drain past it *)
}

val default : profile

type session

type stats = {
  mutable opened : int;
  mutable closed : int;
  mutable reconnects : int;
  mutable storm_ops : int;
}

type t

val create : seed:int -> profile -> t
(** Raises [Invalid_argument] on non-positive
    [sessions]/[partitions]/[dur_ns]. *)

val next_arrival : t -> now:int -> int option
(** Gap (ns from [now]) until the next session opens; [None] once the
    arrival cap is reached or the window has closed. *)

val connect : t -> session
(** Open a session: draws its tenant, length and private rng stream. *)

val think_gap : session -> int
(** Client think time before the session's next request. *)

val op : t -> session -> now:int -> op
(** The session's next request (consumes one of its remaining requests).
    Raises [Invalid_argument] if the session is already {!finished}. *)

val finished : session -> bool

val complete : t -> session -> bool
(** Close a finished session; [true] means the client churns back in and
    the caller should open a replacement with {!connect}. *)

val stats : t -> stats
