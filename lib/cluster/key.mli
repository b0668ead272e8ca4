(** The key-state kernel: one versioned Tardis-lease record and the
    timestamp rules of the cluster KV ({!Kv}) and the replicated service
    built on it ([Ordo_service]).

    Every read stamp, write stamp, version install and commit wait of
    both layers goes through here.  The module is pure: it reads no
    clock, sends no message and emits no trace event.  Callers read the
    clock themselves (emitting [Clock_read]) and pass the value in, so
    what a run traces is decided entirely at the call sites. *)

type t = {
  mutable value : int;
  mutable ver : int;
  mutable wts : int;  (** timestamp of the installed version *)
  mutable rts : int;  (** read lease: no write may commit at or below it *)
  mutable locked : bool;
}

val make : value:int -> t

val write_floor : floor:int -> wts:int -> rts:int -> int
(** Per-key stamp floor for a write: at or above [floor] (a promoted
    leader's floor, or a 2PC peer's proposal) and strictly above the
    installed version and every granted read lease. *)

val write_ts : t -> floor:int -> clock:int -> int
(** The stamp a write or a 2PC proposal on this key takes at [clock]:
    [max clock (write_floor ~floor ~wts ~rts)]. *)

val read : t -> clock:int -> lease_ns:int -> int
(** Serve a read at [clock]: returns the read stamp [max clock wts] and
    extends the read lease to cover [stamp + lease_ns]. *)

val install : t -> delta:int -> ver:int -> ts:int -> unit
(** Install version [ver] at stamp [ts], adding [delta] to the value.
    The read lease never falls below [ts], and the write lock (held, if
    at all, by the installing transaction) is released. *)

val commit_delay : joint:int -> boundary:int -> clock:int -> int
(** The Spanner-style commit wait over the composed boundary: [0] once
    [clock > joint + boundary], i.e. the joint proposal is certainly in
    the past on every clock; otherwise the ns until [clock] reaches
    [joint + boundary + 1]. *)

(** {2 Shared cost model}

    Simulated costs and budgets both layers charge identically. *)

val op_ns : int  (** node occupancy per transaction step *)

val msg_ns : int  (** node occupancy per delivered message *)

val retry_ns : int  (** backoff unit when a key is locked *)

val max_retries : int  (** locked-key retries before failing the operation *)

val lease_ns : int  (** read-lease extension granted per read *)
