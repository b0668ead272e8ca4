(* Quickstart: measure this machine's ORDO_BOUNDARY and use the three-call
   Ordo API (get_time / cmp_time / new_time) to order events between
   threads.

     dune exec examples/quickstart.exe *)

(* The example's own mailbox is harness plumbing, not the algorithm. *)
[@@@ordo_lint.allow "atomic-confinement"]

module R = Ordo_runtime.Real.Runtime

let () =
  (* 1. Measure the uncertainty window between this machine's cores with
        the paper's Figure 4 algorithm.  On a single-core host there are
        no pairs, so fall back to a representative value. *)
  let boundary =
    if Ordo_clock.Tsc.num_cpus () >= 2 then begin
      let module B = Ordo_core.Boundary.Make (Ordo_runtime.Real.Exec) in
      let cores = List.init (min 8 (Ordo_clock.Tsc.num_cpus ())) Fun.id in
      B.measure ~runs:500 ~cores ()
    end
    else 276 (* the paper's 8-socket Xeon value *)
  in
  Printf.printf "ORDO_BOUNDARY: %d ns\n" boundary;

  (* 2. Instantiate the primitive. *)
  let module Ordo = Ordo_core.Ordo.Make (R) (struct let boundary = boundary end) in

  (* 3. Timestamps within the boundary are *uncertain* — cmp_time says so
        instead of guessing. *)
  let t1 = Ordo.get_time () in
  let t2 = Ordo.get_time () in
  (match Ordo.cmp_time t1 t2 with
  | 0 -> Printf.printf "t1 vs t2: uncertain (within %d ns) - as expected back-to-back\n" boundary
  | c -> Printf.printf "t1 vs t2: ordered (%+d)\n" c);

  (* 4. new_time waits out the uncertainty: the result is certainly newer
        than t1 on *every* core of the machine. *)
  let t3 = Ordo.new_time t1 in
  assert (Ordo.cmp_time t3 t1 = 1);
  Printf.printf "new_time(t1) = t1 + %d ns: certainly ordered on all cores\n" (t3 - t1);

  (* 5. Cross-thread ordering: a timestamp taken after new_time on one
        domain is certainly after the original on another domain. *)
  let stamp = Atomic.make 0 in
  let d =
    Domain.spawn (fun () ->
        Atomic.set stamp (Ordo.new_time t1);
        Ordo.get_time ())
  in
  let other_thread_time = Domain.join d in
  assert (Ordo.cmp_time (Atomic.get stamp) t1 = 1);
  Printf.printf "other domain stamped %+d ns after t1 (certain: %b)\n"
    (other_thread_time - t1)
    (Ordo.cmp_time (Atomic.get stamp) t1 = 1);

  (* 6. Observability: trace the classic counter race on the simulator —
        every simulated thread hammers one logical-clock cell — and print
        the cache lines the coherence traffic concentrates on. *)
  let module S = Ordo_sim.Sim.Runtime in
  let module Clock = Ordo_core.Timestamp.Logical (S) () in
  let module Trace = Ordo_trace.Trace in
  Trace.start ();
  ignore
    (Ordo_sim.Sim.run Ordo_sim.Machine.xeon ~threads:8 (fun _ ->
         for _ = 1 to 200 do
           ignore (Clock.advance () : int)
         done)
      : Ordo_sim.Engine.stats);
  let t = Trace.stop () in
  List.iter
    (fun (l : Ordo_trace.Trace.line_stat) ->
      Printf.printf "hot line %s: %d transfers, %d invalidations\n"
        (Trace.line_label l.line) l.transfers l.invalidations)
    (Ordo_trace.Metrics.hottest ~n:3 t);
  print_endline "quickstart ok"
