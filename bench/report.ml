(* Observability report: rerun the timestamp-generation race (the
   Figure 8b workload) under the event sink and print the coherence
   traffic that explains the throughput gap — the logical clock's global
   counter line is transferred and invalidated on every allocation, while
   Ordo's core-local reads generate none. *)

module Machine = Ordo_sim.Machine
module Sim = Ordo_sim.Sim
module R = Ordo_sim.Sim.Runtime
module P = Ordo_util.Report
module Trace = Ordo_trace.Trace
module Metrics = Ordo_trace.Metrics
module H = Harness

let header =
  [ "threads"; "ops/us"; "xfer"; "l1"; "llc"; "mesh"; "cross"; "mem"; "inval"; "stall_ns"; "clk" ]

let run_source ~full machine label (make_ts : unit -> (module Ordo_core.Timestamp.S)) =
  let counts = H.cores_for ~full machine in
  let last = List.fold_left max 1 counts in
  (* Each cell installs its own trace sink — sinks are domain-local, so
     concurrent cells on pool domains do not interleave events. *)
  let cells =
    H.par_map
      (fun threads ->
        let (module T) = make_ts () in
        (* A small ring on purpose: this table reads only the exact
           counters, and the wrap shows up as the ring-dropped line. *)
        Trace.start ~capacity:4096 ();
        let thr =
          H.throughput ~warm:20_000 ~dur:120_000 machine ~threads (fun _ _ ->
              ignore (T.advance () : int))
        in
        let t = Trace.stop () in
        (threads, thr, t))
      counts
  in
  let final_trace = ref None in
  let rows =
    List.map
      (fun (threads, thr, t) ->
        if threads = last then final_trace := Some t;
        let total, _ = Metrics.totals t in
        [
          string_of_int threads;
          Printf.sprintf "%.2f" thr;
          string_of_int (Metrics.transfers_total total);
          string_of_int total.Trace.transfers.(Trace.cls_l1);
          string_of_int total.Trace.transfers.(Trace.cls_llc);
          string_of_int total.Trace.transfers.(Trace.cls_mesh);
          string_of_int total.Trace.transfers.(Trace.cls_cross);
          string_of_int total.Trace.transfers.(Trace.cls_mem);
          string_of_int total.Trace.invalidations;
          string_of_int total.Trace.stall_ns;
          string_of_int total.Trace.clock_reads;
        ])
      cells
  in
  P.table
    ~title:(Printf.sprintf "%s: throughput vs coherence traffic (%s)" label (H.machine_label machine))
    ~header rows;
  match !final_trace with None -> () | Some t -> Metrics.print ~label t

let trace_report ~full =
  P.section "Observability: coherence traffic of timestamp generation";
  let machine = Machine.xeon in
  (* Measure the boundary before installing the sink so the measurement
     itself stays untraced. *)
  let boundary = H.boundary_of machine in
  P.kv "measured ORDO_BOUNDARY (ns)" (string_of_int boundary);
  run_source ~full machine "logical" H.logical_ts;
  run_source ~full machine "ordo" (fun () -> H.ordo_ts ~boundary machine)

(* ---- race-detector verdict pass ----

   Run every workload and every seeded-defect fixture under the dynamic
   race detector and print the verdicts side by side: the correct
   protocols must come out clean, the seeded defects must fire.  Each
   cell is one pool task with its own domain-local detector sink, so
   [--jobs n] output stays byte-identical. *)

module Race = Ordo_analyze.Race
module Workloads = Ordo_workloads.Workloads

(* (workload, detector must stay silent on it) *)
let analyze_cases =
  [
    ("rlu", true);
    ("occ", true);
    ("tl2", true);
    ("hekaton", true);
    ("oplog", true);
    ("race", false);
    ("window", false);
    ("handshake", true);
  ]

let analyze_header =
  [ "workload"; "accesses"; "syncs"; "stamps"; "ts_edges"; "uncert_cmp"; "conflicts"; "verdict" ]

let analyze_report ~full =
  P.section "Correctness: race-detector verdicts over workloads and seeded fixtures";
  let machine = Machine.xeon in
  let boundary = H.boundary_of machine in
  P.kv "measured ORDO_BOUNDARY (ns)" (string_of_int boundary);
  let threads = if full then Ordo_util.Topology.total_threads machine.Machine.topo else 16 in
  let dur = if full then 400_000 else 150_000 in
  let cells =
    H.par_map
      (fun (name, expect_clean) ->
        let ts = H.ordo_ts ~boundary machine in
        Race.start ~boundary
          ~threads:(Ordo_util.Topology.total_threads machine.Machine.topo)
          ();
        ignore
          (Workloads.run name ~report:false machine ts ~threads ~dur
            : Ordo_sim.Engine.stats);
        (name, expect_clean, Race.stop ()))
      analyze_cases
  in
  let bad = ref 0 in
  let rows =
    List.map
      (fun (name, expect_clean, (r : Race.report)) ->
        let clean = Race.ok r in
        if clean <> expect_clean then incr bad;
        let verdict =
          match (clean, expect_clean) with
          | true, true -> "clean"
          | false, false ->
            Printf.sprintf "fires (%d races, %d uncertain) [seeded]" (Race.races r)
              (Race.uncertain r)
          | true, false -> "SILENT on a seeded defect"
          | false, true -> Printf.sprintf "UNEXPECTED: %d conflicts" r.Race.total_conflicts
        in
        [
          name;
          string_of_int r.Race.accesses;
          string_of_int r.Race.syncs;
          string_of_int r.Race.published;
          string_of_int r.Race.ts_edges;
          string_of_int r.Race.ts_uncertain;
          string_of_int r.Race.total_conflicts;
          verdict;
        ])
      cells
  in
  P.table ~title:(Printf.sprintf "detector verdicts (%s)" (H.machine_label machine))
    ~header:analyze_header rows;
  P.kv "verdicts matching expectation"
    (Printf.sprintf "%d/%d%s" (List.length cells - !bad) (List.length cells)
       (if !bad > 0 then " — MISMATCH" else ""))
