(** Sharded, Ordo-timestamped KV service over the cluster network model.

    Keys are partitioned across shard nodes ([key mod shards]); a client
    node drives an open-loop load (exponential arrivals, Zipf keys,
    optional request batching).  Single-shard transactions commit locally
    in one shard visit; cross-shard transfers run two-phase commit with a
    commit timestamp above both shards' proposals and — under the Ordo
    source — a Spanner-style commit wait over the composed boundary.
    Reads are Tardis-style leases: served at [max(clock, wts)], renewing
    the key's read lease instead of invalidating, so read-mostly keys
    never bounce between nodes.  Every stamp, install and commit wait
    follows the key-state kernel ({!Key}).

    When an {!Ordo_trace.Trace} sink is installed, the service emits
    (with [tid] = node id) [Clock_read] events for every protocol clock
    read, the [tx.*] probe protocol for every committed transaction, and
    [ordo.new_time] for every commit wait — so the stock offline
    {!Ordo_trace.Checker} verifies cross-node commit ordering with no
    cluster-specific code. *)

type source =
  | Logical  (** central sequencer node: one counter, one RPC per stamp *)
  | Ordo  (** per-node clocks under the composed cluster boundary *)

val source_name : source -> string

(** Trace vocabulary hooks: the [Clock_read]/[tx.*]/[ordo.new_time]
    emission discipline, exported so higher layers speak the same probe
    protocol and the stock offline checker needs no layer-specific
    code.  All helpers are observational — no time charge, no rng
    draw — so enabling tracing never perturbs a run. *)
module Obs : sig
  val probe : 'm Net.t -> int -> string -> int -> int -> unit
  val clock : 'm Net.t -> int -> int
  (** Read node's reference clock, emitting a [Clock_read] event. *)

  val emit_tx :
    'm Net.t ->
    int ->
    start_ts:int ->
    reads:(int * int) list ->
    installs:(int * int) list ->
    commit_ts:int ->
    unit
  (** Emit one committed transaction's probe group atomically. *)
end

(** Client-side outcome tally, shared with the service layer: every
    resolved operation is recorded at the client when its reply lands. *)
module Tally : sig
  type t = {
    mutable committed : int;
    mutable failed : int;
    mutable end_ns : int;  (** cluster time of the last resolution *)
    mutable lats : float list;  (** committed ops' arrival-to-reply ns *)
  }

  val create : unit -> t
  val record : t -> now:int -> arrival:int -> bool -> unit
  val throughput : t -> float  (** committed ops per µs of [end_ns] *)

  val latency : t -> float * float * float
  (** [(mean, p50, p99)] of the committed latencies; zeros when none. *)
end

type config = {
  shards : int;  (** must equal the spec's node count *)
  keys : int;
  theta : float;  (** Zipf skew of the key popularity *)
  arrival_ns : int;  (** mean inter-arrival of the whole client stream *)
  batch : int;  (** transactions per client request message *)
  read_pct : int;
  cross_pct : int;  (** cross-shard transfers, % of all transactions *)
  lease_ns : int;  (** read-lease extension granted per read *)
  dur_ns : int;  (** arrival window; the run then drains to completion *)
  source : source;
}

val default : config

type result = {
  issued : int;
  committed : int;
  aborted : int;
  cross_issued : int;
  cross_committed : int;
  throughput : float;  (** committed transactions per µs of run time *)
  mean_ns : float;  (** client-observed commit latency *)
  p50_ns : float;
  p99_ns : float;
  messages : int;  (** total messages delivered (batching reduces this) *)
  renewals : int;  (** reads that extended a still-active lease *)
  commit_waits : int;  (** cross-shard commits that waited out uncertainty *)
  wait_ns : int;  (** total commit-wait time *)
  end_ns : int;  (** cluster time at which the last transaction resolved *)
  sum_values : int;  (** final sum over all keys: must equal [expected_sum] *)
  expected_sum : int;  (** [keys * 100] plus committed increments *)
  locks_left : int;  (** keys still locked after the drain — must be 0 *)
}

val breaches : result -> string list
(** The invariant battery, one message per breach ([[]] = all hold):
    every issued transaction resolved, conservation, no leaked lock. *)

val run : boundary:int -> Net.Spec.t -> config -> result
(** [run ~boundary spec cfg] executes one deterministic service run.
    [spec] describes the shard nodes (one per shard); a client and a
    sequencer node are appended internally, for both sources, so the
    topology of a logical-vs-ordo comparison is identical.  [boundary]
    is the composed cluster boundary ({!Compose.measure}; pass the
    unsound [rtt2_boundary] to reproduce the violation fixture, or [0]
    with the logical source).  Raises [Invalid_argument] on a
    shard/spec mismatch or degenerate parameters. *)
