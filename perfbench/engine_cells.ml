(* paper_engine: the paper's contention cells on the simulator, with no
   network.  fig8b's atomic fetch_add vs Ordo new_time on all four
   presets, Exim over the three reverse-map variants, and TPC-C OCC vs
   OCC_ORDO, the last two on xeon at a mid thread count.  Every op's
   simulated latency is recorded inside the measurement window. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module Rng = Ordo_util.Rng
module Topology = Ordo_util.Topology

let label (m : Machine.t) = m.Machine.topo.Topology.name

(* The thread counts and sampled cores the repository's bench uses by
   default (bench/harness.ml), so cells match its fig8b rows. *)
let cores_for (m : Machine.t) =
  let topo = m.Machine.topo in
  let total = Topology.total_threads topo and physical = Topology.physical_cores topo in
  [ 1; topo.Topology.cores_per_socket; physical / 2; physical; total ]
  |> List.filter (fun n -> n >= 1 && n <= total)
  |> List.sort_uniq compare

let sample_cores (m : Machine.t) =
  let topo = m.Machine.topo in
  let total = Topology.total_threads topo in
  let stride = Int.max 1 (total / 12) in
  let picks = List.filter (fun i -> i mod stride = 0) (List.init total Fun.id) in
  List.sort_uniq compare ((Topology.physical_cores topo - 1) :: (total - 1) :: picks)

let boundary_of (m : Machine.t) =
  Spans.span "core.boundary" (fun () ->
      Sim.with_fresh_instance (fun () ->
          let module E = (val Sim.exec m) in
          let module B = Ordo_core.Boundary.Make (E) in
          B.measure ~runs:60 ~cores:(sample_cores m) ()))

let ordo_ts boundary : (module Ordo_core.Timestamp.S) =
  let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
  (module Ordo_core.Timestamp.Ordo_source (O))

(* Per-op simulated latencies of the running cell, reused across cells. *)
let lat = ref (Array.make 65_536 0)
let nlat = ref 0

let push v =
  if !nlat = Array.length !lat then begin
    let a = Array.make (2 * !nlat) 0 in
    Array.blit !lat 0 a 0 !nlat;
    lat := a
  end;
  !lat.(!nlat) <- v;
  incr nlat

type work = { op : int -> Rng.t -> unit; stats : unit -> (string * float) list }

let plain op = { op; stats = (fun () -> []) }

(* One cell: [make] builds the cell's whole state inside a fresh simulator
   instance; each thread runs ops closed-loop, warm-up first, and the
   window's ops are counted and timed. *)
let cell ~group ~id ~seed ~index ~warm ~dur m ~threads make : Agg.plan =
  let run () =
    Sim.with_fresh_instance @@ fun () ->
    let w = make ~threads in
    nlat := 0;
    let stats =
      Spans.span group (fun () ->
          Sim.run m ~threads (fun i ->
              let rng = Rng.create ~seed:(Int64.of_int ((seed * 1_000_003) + (index * 7_919) + i)) () in
              let t = ref (R.now ()) in
              while !t < warm do
                w.op i rng;
                t := R.now ()
              done;
              while !t < warm + dur do
                w.op i rng;
                let t' = R.now () in
                push (t' - !t);
                t := t'
              done))
    in
    let sorted = Array.sub !lat 0 !nlat in
    Array.sort compare sorted;
    let ops = Array.length sorted in
    let p50 = Agg.percentile sorted 0.5 and p99 = Agg.percentile sorted 0.99 in
    let events = stats.Ordo_sim.Engine.events in
    let counters = (group ^ ".events", float_of_int events) :: w.stats () in
    {
      Agg.id;
      attempted = ops;
      committed = ops;
      failed = 0;
      sim_ns = dur;
      p50_ns = float_of_int p50;
      p99_ns = float_of_int p99;
      samples = ops;
      breaches = 0;
      events;
      messages = 0;
      digest =
        Printf.sprintf "%s ops=%d events=%d end=%d p50=%d p99=%d %s" id ops events
          stats.Ordo_sim.Engine.end_vtime p50 p99
          (String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%.0f" k v) counters));
      counters;
    }
  in
  { Agg.name = id; offered = 0; run }

let timestamps boundary ~source ~threads:_ =
  match source with
  | `Atomic ->
    let clock = R.cell 0 in
    plain (fun _ _ -> ignore (R.fetch_add clock 1 : int))
  | `Ordo ->
    let module O = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in
    let last = ref 0 in
    plain (fun _ _ -> last := O.new_time !last)

let exim (module M : Ordo_oplog.Rmap.S) ~threads =
  let module E = Ordo_oplog.Exim.Make (R) (M) in
  let t = E.create ~threads ~pages:4096 () in
  let seqs = Array.make threads 0 in
  plain (fun i rng ->
      seqs.(i) <- seqs.(i) + 1;
      E.deliver t rng seqs.(i))

let tpcc (module TS : Ordo_core.Timestamp.S) ~threads =
  let module C = Ordo_db.Occ.Make (R) (TS) in
  let module T = Ordo_db.Tpcc.Make (R) (C) in
  let t = T.create ~threads () in
  {
    op = (fun i rng -> T.run_tx t rng ~tid:i);
    stats =
      (fun () ->
        [ ("db.commits", float_of_int (T.stats_commits t)); ("db.aborts", float_of_int (T.stats_aborts t)) ]);
  }

(* Simulated windows: fig8b's, and Exim/TPC-C sized so each of their cells
   has over 1,000 latency samples. *)
let ts_warm = 20_000 and ts_dur = 100_000
let exim_warm = 200_000 and exim_dur = 1_200_000
let tpcc_warm = 100_000 and tpcc_dur = 400_000

(* Set-up measures every preset's boundary; the plans close over them. *)
let plans ~seed =
  let bounds = List.map (fun m -> (m, boundary_of m)) Machine.presets in
  let xeon = Machine.xeon in
  let xeon_b = List.assq xeon bounds in
  let mid = Topology.physical_cores xeon.Machine.topo / 2 in
  let ts =
    List.concat_map
      (fun (m, b) ->
        List.concat_map
          (fun threads ->
            List.map
              (fun (name, source) ->
                (Printf.sprintf "ts/%s/%s/%d" (label m) name threads, m, threads, "simcore.ts",
                 ts_warm, ts_dur, timestamps b ~source))
              [ ("atomic", `Atomic); ("ordo", `Ordo) ])
          (cores_for m))
      bounds
  in
  let exims =
    List.map
      (fun (name, make) ->
        (Printf.sprintf "exim/xeon/%s/%d" name mid, xeon, mid, "oplog.exim", exim_warm, exim_dur, make))
      [
        ("vanilla", fun ~threads -> exim (module Ordo_oplog.Rmap.Vanilla (R)) ~threads);
        ( "oplog",
          fun ~threads -> exim (module Ordo_oplog.Rmap.Logged (R) (Ordo_core.Timestamp.Raw (R))) ~threads );
        ( "oplog_ordo",
          fun ~threads ->
            let module TS = (val ordo_ts xeon_b) in
            exim (module Ordo_oplog.Rmap.Logged (R) (TS)) ~threads );
      ]
  in
  let tpccs =
    List.map
      (fun (name, make) ->
        (Printf.sprintf "tpcc/xeon/%s/%d" name mid, xeon, mid, "db.tpcc", tpcc_warm, tpcc_dur, make))
      [
        ("occ", fun ~threads -> tpcc (module Ordo_core.Timestamp.Logical (R) ()) ~threads);
        ("occ_ordo", fun ~threads -> tpcc (ordo_ts xeon_b) ~threads);
      ]
  in
  List.mapi
    (fun index (id, m, threads, group, warm, dur, make) ->
      cell ~group ~id ~seed ~index ~warm ~dur m ~threads make)
    (ts @ exims @ tpccs)
