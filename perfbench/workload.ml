(* The benchmark's workloads, the timed loop that runs them, and the
   metrics it reports.

   A run sets the workload up several times (boundary measurement; its
   median is [setup_s]), runs one warm-up pass whose cells give every
   simulated metric and the peak heap, then repeats the pass until the
   time budget is spent.  Every repeat must reproduce the warm-up pass's digest.  Host
   metrics are medians over the repeats.  With [~trace:true] the second
   half of the budget runs with spans on, and the per-layer metrics come
   from those traced passes. *)

module Kv = Ordo_cluster.Kv

type t = {
  name : string;
  plans : seed:int -> Agg.plan list;  (** set-up: measures boundaries, returns the cells *)
  limit_s : float option;  (** per-cell watchdog *)
}

let kv_dur_ns = 600_000
let kv_seeds = 6
let service_dur_ns = 400_000
let service_cells = 72

let service name ~sessions ~cells =
  {
    name;
    plans =
      (fun ~seed ->
        let spec = Cluster_cells.service_spec () in
        let measured = Cluster_cells.measure spec in
        List.init cells (fun i ->
            Cluster_cells.service_cell ~spec ~measured
              (Cluster_cells.service_config ~sessions ~dur_ns:service_dur_ns ~seed:((seed * cells) + i + 1))));
    limit_s = Some 5.;
  }

let all =
  [
    { name = "paper_engine"; plans = Engine_cells.plans; limit_s = None };
    {
      name = "kv_sequencer";
      plans =
        (fun ~seed ->
          List.concat_map
            (fun i ->
              let spec = Cluster_cells.kv_spec ~seed:((seed * kv_seeds) + i + 1) in
              let measured = Cluster_cells.measure spec in
              List.map (Cluster_cells.kv_cell ~spec ~measured ~dur_ns:kv_dur_ns) [ Kv.Logical; Kv.Ordo ])
            (List.init kv_seeds Fun.id));
      limit_s = Some 20.;
    };
    service "service_steady" ~sessions:120 ~cells:service_cells;
    service "service_overload" ~sessions:400 ~cells:6;
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let run_plan limit (p : Agg.plan) =
  match limit with
  | None -> p.Agg.run ()
  | Some seconds -> (
    match Watchdog.within ~seconds p.Agg.run with
    | Some c -> c
    | None -> Agg.hung ~id:p.Agg.name ~offered:p.Agg.offered)

(* With [~collect] each cell starts from a collected heap, so the peak
   heap is set by the largest cell rather than by where the previous
   cells left the GC. *)
let pass ?(collect = false) w plans =
  Spans.span "pass" (fun () ->
      List.mapi
        (fun i p ->
          if collect then Gc.full_major ();
          Spans.in_cell i (fun () -> run_plan w.limit_s p))
        plans)

let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

type outcome = {
  cells : Agg.cell list;  (** the warm-up pass *)
  mismatches : int;  (** repeats whose digest differed from the warm-up pass *)
  setup_s : float list;
  peak_heap_words : int;  (** after set-up and the warm-up pass *)
  walls : float list;  (** untraced repeats *)
  traced_walls : float list;
}

let setups = 9
let min_passes = 3

(* Repeat passes until [budget] seconds have gone, at least [min_passes]. *)
let repeat w plans ~reference ~budget =
  let t0 = Unix.gettimeofday () in
  let rec go walls mismatches =
    if List.length walls >= min_passes && Unix.gettimeofday () -. t0 >= budget then (List.rev walls, mismatches)
    else begin
      let cells, wall = timed (fun () -> pass w plans) in
      go (wall :: walls) (if Agg.digest cells = reference then mismatches else mismatches + 1)
    end
  in
  go [] 0

let execute w ~seed ~seconds ~trace =
  Spans.reset ();
  Spans.on := trace;
  let setup_runs = List.init setups (fun _ -> timed (fun () -> Spans.span "setup" (fun () -> w.plans ~seed))) in
  let plans = fst (List.hd (List.rev setup_runs)) in
  Spans.on := false;
  let cells = pass ~collect:true w plans in
  let peak_heap_words = (Gc.quick_stat ()).Gc.top_heap_words in
  let reference = Agg.digest cells in
  let budget = if trace then seconds /. 2. else seconds in
  let walls, m1 = repeat w plans ~reference ~budget in
  let traced_walls, m2 =
    if trace then begin
      Spans.on := true;
      let r = repeat w plans ~reference ~budget in
      Spans.on := false;
      r
    end
    else ([], 0)
  in
  { cells; mismatches = m1 + m2; setup_s = List.map snd setup_runs; peak_heap_words; walls; traced_walls }

let breaches o = Agg.breaches o.cells + o.mismatches
let events_per_pass o = List.fold_left (fun acc c -> acc + c.Agg.events + c.Agg.messages) 0 o.cells

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value; unit }

let end_to_end o =
  let wall = Agg.median o.walls in
  [
    m "wall_s" "s" wall;
    m "setup_s" "s" (Agg.median o.setup_s);
    m "peak_heap_mb" "MB" (float_of_int (o.peak_heap_words * (Sys.word_size / 8)) /. 1e6);
    m "events_per_s" "1/s" (float_of_int (events_per_pass o) /. wall);
    m "ops_per_s" "1/s" (float_of_int (Agg.resolved o.cells) /. wall);
    m "goodput_ops_per_us" "ops/us" (Agg.goodput_ops_per_us o.cells);
    m "p50_us" "us" (Agg.p50_us o.cells);
    m "p99_us" "us" (Agg.p99_us o.cells);
  ]

let ratio a b = if b = 0. then 0. else a /. b

(* Per-layer metrics from the traced passes' spans (per pass) and set-up
   spans (per set-up), plus the warm-up pass's layer counters. *)
let per_layer o =
  let passes = float_of_int (List.length o.traced_walls) and setups = float_of_int (List.length o.setup_s) in
  let span_s name = ratio (Spans.total name).Spans.seconds passes in
  let span_minor names = ratio (List.fold_left (fun acc n -> acc +. (Spans.total n).Spans.minor) 0. names) passes in
  let span_major names = ratio (List.fold_left (fun acc n -> acc +. (Spans.total n).Spans.major) 0. names) passes in
  let c name = Agg.counter name o.cells in
  let engine = [ "simcore.ts"; "oplog.exim"; "db.tpcc" ] in
  let events = float_of_int (List.fold_left (fun acc c -> acc + c.Agg.events) 0 o.cells) in
  let messages = float_of_int (List.fold_left (fun acc c -> acc + c.Agg.messages) 0 o.cells) in
  let kv_runs = [ "kv.run.logical"; "kv.run.ordo" ] and kv_traced = [ "kv.run.logical.traced"; "kv.run.ordo.traced" ] in
  let sum_s names = List.fold_left (fun acc n -> acc +. span_s n) 0. names in
  let untraced = kv_runs @ [ "service.run" ] and traced = kv_traced @ [ "service.run.traced" ] in
  let trace_cells = float_of_int (Spans.total "trace.start").Spans.count in
  let group_rate group counter = ratio (c counter) (span_s group) in
  let kv_rate name = ratio (c ("kv.ops." ^ name)) (span_s ("kv.run." ^ name)) in
  let worst_p99, _, worst_p99_samples = Agg.worst_p99 o.cells in
  [
    m "simcore.events" "count" events;
    m "simcore.events_per_s.ts" "1/s" (group_rate "simcore.ts" "simcore.ts.events");
    m "simcore.events_per_s.exim" "1/s" (group_rate "oplog.exim" "oplog.exim.events");
    m "simcore.events_per_s.tpcc" "1/s" (group_rate "db.tpcc" "db.tpcc.events");
    m "simcore.minor_words_per_event" "words" (ratio (span_minor engine) events);
    m "simcore.major_words_per_event" "words" (ratio (span_major engine) events);
    m "core.boundary_s" "s" (ratio (Spans.total "core.boundary").Spans.seconds setups);
    m "oplog.exim_s" "s" (span_s "oplog.exim");
    m "db.tpcc_s" "s" (span_s "db.tpcc");
    m "db.commit_ratio" "share" (ratio (c "db.commits") (c "db.commits" +. c "db.aborts"));
    m "compose.measure_s" "s" (ratio (Spans.total "compose.measure").Spans.seconds setups);
    m "kv.run_s.logical" "s" (span_s "kv.run.logical");
    m "kv.run_s.ordo" "s" (span_s "kv.run.ordo");
    m "kv.ops_per_s.logical" "1/s" (kv_rate "logical");
    m "kv.ops_per_s.ordo" "1/s" (kv_rate "ordo");
    m "kv.commit_ratio" "share" (ratio (c "kv.committed") (c "kv.issued"));
    m "kv.commit_waits" "count" (c "kv.commit_waits");
    m "kv.minor_words_per_op" "words" (ratio (span_minor kv_runs) (c "kv.issued"));
    m "kv.major_words_per_op" "words" (ratio (span_major kv_runs) (c "kv.issued"));
    m "net.messages" "count" messages;
    m "net.messages_per_op" "count" (ratio messages (float_of_int (Agg.resolved o.cells)));
    m "service.run_s" "s" (span_s "service.run");
    m "service.ops_per_s" "1/s" (ratio (c "service.ops") (span_s "service.run"));
    m "service.minor_words_per_op" "words" (ratio (span_minor [ "service.run" ]) (c "service.ops"));
    m "service.major_words_per_op" "words" (ratio (span_major [ "service.run" ]) (c "service.ops"));
    m "epoch.epochs" "count" (c "epoch.epochs");
    m "epoch.commit_waits" "count" (c "epoch.commit_waits");
    m "epoch.wait_ns" "ns" (c "epoch.wait_ns");
    m "replog.shipped" "count" (c "replog.shipped");
    m "replog.applied_ratio" "share" (ratio (c "replog.applied") (c "replog.shipped"));
    m "replog.dups" "count" (c "replog.dups");
    m "replog.stale" "count" (c "replog.stale");
    m "admission.admit_ratio" "share" (ratio (c "admission.admitted") (c "admission.admitted" +. c "admission.shed"));
    m "admission.shed" "count" (c "admission.shed");
    m "admission.depth_hw" "count" (Agg.counter_max "admission.depth_hw" o.cells);
    m "lease.promotions" "count" (c "lease.promotions");
    m "lease.degraded_reads" "count" (c "lease.degraded_reads");
    m "net.dropped" "count" (c "net.dropped");
    m "trace.start_s" "s" (span_s "trace.start");
    m "trace.emit_s" "s" (sum_s traced -. sum_s untraced);
    m "trace.heap_words" "words"
      (ratio
         ((Spans.total "trace.start").Spans.major +. (passes *. (span_major traced -. span_major untraced)))
         trace_cells);
    m "trace.events" "count" (c "trace.events");
    m "trace.dropped" "count" (c "trace.dropped");
    m "trace.stop_s" "s" (span_s "trace.stop");
    m "checker.check_s" "s" (span_s "checker.check");
    m "checker.violations" "count" (c "checker.violations");
    m "sessions.opened" "count" (c "sessions.opened");
    m "sessions.reconnects" "count" (c "sessions.reconnects");
    m "sessions.storm_ops" "count" (c "sessions.storm_ops");
    m "bench.failed_share" "share" (Agg.failed_share o.cells);
    m "bench.invariant_breaches" "count" (float_of_int (breaches o));
    m "bench.worst_p99_us" "us" worst_p99;
    m "bench.worst_p99_samples" "count" (float_of_int worst_p99_samples);
    m "bench.traced_pass_overhead" "share" (ratio (Agg.median o.traced_walls) (Agg.median o.walls) -. 1.);
  ]
