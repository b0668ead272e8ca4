(* Tests of the benchmark's aggregation, watchdog and seed plumbing, on
   cells small enough for the unit-test budget. *)

open Perfbench
module Kv = Ordo_cluster.Kv
module Machine = Ordo_sim.Machine

let cell ?(samples = 1000) ?(failed = 0) ~id ~attempted ~p99_ns () =
  {
    Agg.id;
    attempted;
    committed = attempted - failed;
    failed;
    sim_ns = 1_000;
    p50_ns = 10.;
    p99_ns;
    samples;
    breaches = 0;
    events = 0;
    messages = 0;
    digest = id;
    counters = [];
  }

let test_worst_p99 () =
  let cells =
    [
      cell ~id:"a" ~attempted:100 ~p99_ns:5_000. ();
      cell ~id:"b" ~attempted:100 ~p99_ns:9_000. ~samples:1200 ();
      cell ~id:"c" ~attempted:100 ~p99_ns:7_000. ();
      Agg.hung ~id:"d" ~offered:40;
    ]
  in
  let p99, id, samples = Agg.worst_p99 cells in
  Alcotest.(check (float 1e-9)) "worst p99 (us)" 9. p99;
  Alcotest.(check string) "worst cell" "b" id;
  Alcotest.(check int) "its samples" 1200 samples;
  Alcotest.(check (float 1e-9)) "mean p99 skips the hung cell" 7. (Agg.p99_us cells)

(* Spins forever, allocating so the watchdog's signal is polled. *)
let rec hang n = hang (n + List.length [ n ])

let small_service_cell () =
  let spec = Cluster_cells.service_spec () in
  Cluster_cells.service_cell ~spec ~measured:(Cluster_cells.measure spec)
    (Cluster_cells.service_config ~sessions:16 ~dur_ns:30_000 ~seed:1)

let test_failed_share_on_hang () =
  let fresh = (small_service_cell ()).Agg.run () in
  (* The hang happens under a trace sink, as a hung cluster cell's would. *)
  let spin () = fst (Cluster_cells.traced ~capacity:1024 ~boundary:0 (fun () -> hang 0)) in
  let plan = { Agg.name = "spin"; offered = 50; run = spin } in
  let hung = Workload.run_plan (Some 0.2) plan in
  Alcotest.(check int) "offered ops all failed" 50 hung.Agg.failed;
  Alcotest.(check int) "the hang is a breach" 1 hung.Agg.breaches;
  let after = Workload.run_plan (Some 30.) (small_service_cell ()) in
  Alcotest.(check string) "the next cell runs as if fresh" fresh.Agg.digest after.Agg.digest;
  let ok = cell ~id:"ok" ~attempted:150 ~failed:10 ~p99_ns:1. () in
  Alcotest.(check (float 1e-9)) "failed share" (60. /. 200.) (Agg.failed_share [ ok; hung ]);
  Alcotest.(check int) "breaches" 1 (Agg.breaches [ ok; hung ])

(* A small cluster: two KV cells and two service cells, the workloads'
   cell builders at toy sizes. *)
let tiny =
  {
    Workload.name = "tiny";
    plans =
      (fun ~seed ->
        let kv = Cluster_cells.kv_spec ~seed in
        let kv_measured = Cluster_cells.measure kv in
        let svc = Cluster_cells.service_spec () in
        let svc_measured = Cluster_cells.measure svc in
        List.map (Cluster_cells.kv_cell ~spec:kv ~measured:kv_measured ~dur_ns:20_000) [ Kv.Logical; Kv.Ordo ]
        @ List.init 2 (fun i ->
              Cluster_cells.service_cell ~spec:svc ~measured:svc_measured
                (Cluster_cells.service_config ~sessions:16 ~dur_ns:30_000 ~seed:((seed * 2) + i + 1))));
    limit_s = Some 30.;
  }

let deterministic (o : Workload.outcome) =
  let keep = [ "goodput_ops_per_us"; "p50_us"; "p99_us" ] in
  ( Agg.digest o.Workload.cells,
    Agg.attempted o.Workload.cells,
    Agg.failed o.Workload.cells,
    Workload.breaches o,
    List.filter_map
      (fun (x : Workload.metric) -> if List.mem x.Workload.name keep then Some (x.Workload.name, x.Workload.value) else None)
      (Workload.end_to_end o) )

let test_same_seed_same_metrics () =
  let run seed = deterministic (Workload.execute tiny ~seed ~seconds:0.01 ~trace:false) in
  let a = run 3 and b = run 3 and c = run 4 in
  let digest (d, _, _, _, _) = d in
  Alcotest.(check bool) "same seed, same deterministic metrics" true (a = b);
  Alcotest.(check bool) "another seed, other inputs" false (digest a = digest c);
  let _, attempted, _, breaches, _ = a in
  Alcotest.(check bool) "ops attempted" true (attempted > 0);
  Alcotest.(check int) "no breaches" 0 breaches

let test_engine_cell_seeded () =
  let run seed =
    let p =
      Engine_cells.cell ~group:"db.tpcc" ~id:"tpcc" ~seed ~index:0 ~warm:2_000 ~dur:20_000 Machine.xeon ~threads:4
        (fun ~threads -> Engine_cells.tpcc (module Ordo_core.Timestamp.Logical (Ordo_sim.Sim.Runtime) ()) ~threads)
    in
    p.Agg.run ()
  in
  let a = run 1 and b = run 1 and c = run 2 in
  Alcotest.(check string) "same seed, same outputs" a.Agg.digest b.Agg.digest;
  Alcotest.(check bool) "another seed, other outputs" true (a.Agg.digest <> c.Agg.digest);
  Alcotest.(check bool) "ops timed" true (a.Agg.samples > 0)

let test_traced_pass () =
  let o = Workload.execute tiny ~seed:1 ~seconds:0.01 ~trace:true in
  let v name = (List.find (fun (x : Workload.metric) -> x.Workload.name = name) (Workload.per_layer o)).Workload.value in
  Alcotest.(check int) "tracing does not perturb the runs" 0 (Workload.breaches o);
  Alcotest.(check bool) "kv run timed" true (v "kv.run_s.logical" > 0.);
  Alcotest.(check bool) "service run timed" true (v "service.run_s" > 0.);
  Alcotest.(check bool) "trace events counted" true (v "trace.events" > 0.)

let () =
  Alcotest.run "perfbench"
    [
      ( "aggregation",
        [
          Alcotest.test_case "worst-cell p99" `Quick test_worst_p99;
          Alcotest.test_case "failed share when a cell hangs" `Quick test_failed_share_on_hang;
        ] );
      ( "seeds",
        [
          Alcotest.test_case "same seed, identical deterministic metrics" `Quick test_same_seed_same_metrics;
          Alcotest.test_case "engine cells take the seed" `Quick test_engine_cell_seeded;
          Alcotest.test_case "traced pass" `Quick test_traced_pass;
        ] );
    ]
