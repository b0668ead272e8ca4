(* Cluster cells: the sharded KV (kv_sequencer) and the replicated session
   service (service_steady, service_overload).  Each cell runs traced and
   is checked: the stock Checker verdict on a complete trace plus the
   layer's own invariants.  With spans on, the cell first runs the same
   configuration untraced, so trace emission cost is the difference. *)

module Net = Ordo_cluster.Net
module Compose = Ordo_cluster.Compose
module Kv = Ordo_cluster.Kv
module Service = Ordo_service.Service
module Sessions = Ordo_workloads.Sessions
module Trace = Ordo_trace.Trace
module Checker = Ordo_trace.Checker
module Sim = Ordo_sim.Sim

let measure spec = Spans.span "compose.measure" (fun () -> Sim.with_fresh_instance (fun () -> Compose.measure spec))

type check = {
  verdict : Checker.report;
  dropped : int;
  events : int;
  single_installs : int;  (** committed transactions that installed exactly one key *)
}

(* Run [f] under a trace sink of [capacity] events per node, then check
   the trace.  The sink is removed however [f] ends. *)
let traced ~capacity ~boundary f =
  Spans.span "trace.start" (fun () -> Trace.start ~capacity ());
  let r =
    match f () with
    | r -> r
    | exception e ->
      ignore (Trace.stop () : Trace.t);
      raise e
  in
  let t = Spans.span "trace.stop" Trace.stop in
  let verdict, single_installs =
    Spans.span "checker.check" (fun () ->
        let txs, _ = Checker.reconstruct t t.Trace.events in
        (Checker.check ~boundary t, List.length (List.filter (fun tx -> List.length tx.Checker.installs = 1) txs)))
  in
  (r, { verdict; dropped = t.Trace.dropped; events = Array.length t.Trace.events; single_installs })

(* A verdict counts only when the checker saw every event. *)
let check_breaches c = if Checker.ok c.verdict && c.dropped = 0 then 0 else 1

let check_counters c =
  [
    ("trace.events", float_of_int c.events);
    ("trace.dropped", float_of_int c.dropped);
    ("checker.violations", float_of_int (List.length c.verdict.Checker.violations));
  ]

let flag b = if b then 0 else 1

(* ---- kv_sequencer ---- *)

let kv_spec ~seed = Net.Spec.make ~machine:"amd" ~seed:(Int64.of_int seed) 8
let kv_capacity = 65_536

let kv_cell ~spec ~(measured : Compose.t) ~dur_ns source : Agg.plan =
  let name = Kv.source_name source in
  let boundary = match source with Kv.Ordo -> measured.Compose.boundary | Kv.Logical -> 0 in
  let cfg = { Kv.default with Kv.shards = spec.Net.Spec.nodes; dur_ns; source } in
  let span = "kv.run." ^ name in
  let id = Printf.sprintf "kv/%s/seed%Ld" name spec.Net.Spec.seed in
  let run () =
    Sim.with_fresh_instance @@ fun () ->
    let untraced = if !Spans.on then Some (Spans.span span (fun () -> Kv.run ~boundary spec cfg)) else None in
    let r, c = traced ~capacity:kv_capacity ~boundary (fun () -> Spans.span (span ^ ".traced") (fun () -> Kv.run ~boundary spec cfg)) in
    let perturbed = match untraced with Some u -> flag (compare u r = 0) | None -> 0 in
    let breaches =
      flag (r.Kv.issued = r.Kv.committed + r.Kv.aborted)
      (* Increments add one to a key and transfers move one between keys. *)
      + flag (r.Kv.sum_values = (cfg.Kv.keys * 100) + c.single_installs)
      + flag (r.Kv.locks_left = 0)
      + flag (c.verdict.Checker.committed = r.Kv.committed)
      + check_breaches c + perturbed
    in
    let f = float_of_int in
    {
      Agg.id;
      attempted = r.Kv.issued;
      committed = r.Kv.committed;
      failed = r.Kv.aborted;
      sim_ns = r.Kv.end_ns;
      p50_ns = r.Kv.p50_ns;
      p99_ns = r.Kv.p99_ns;
      samples = r.Kv.committed;
      breaches;
      events = 0;
      messages = r.Kv.messages;
      digest =
        Printf.sprintf "%s issued=%d committed=%d aborted=%d msgs=%d end=%d p50=%.0f p99=%.0f waits=%d sum=%d" id
          r.Kv.issued r.Kv.committed r.Kv.aborted r.Kv.messages r.Kv.end_ns r.Kv.p50_ns r.Kv.p99_ns
          r.Kv.commit_waits r.Kv.sum_values;
      counters =
        [
          ("kv.ops." ^ name, f r.Kv.issued);
          ("kv.issued", f r.Kv.issued);
          ("kv.committed", f r.Kv.committed);
          ("kv.commit_waits", f r.Kv.commit_waits);
        ]
        @ check_counters c;
    }
  in
  { Agg.name = id; offered = dur_ns / cfg.Kv.arrival_ns; run }

(* ---- service_steady / service_overload ---- *)

let service_spec () = Net.Spec.make ~machine:"amd" ~replicas:2 6
let service_capacity = 262_144

let service_config ~sessions ~dur_ns ~seed =
  {
    Service.default with
    Service.profile = { Sessions.default with Sessions.sessions; dur_ns };
    seed;
  }

(* Ops the session generator offers, drawn without running the service:
   what a hung cell charges as failed. *)
let offered_ops (cfg : Service.config) =
  let g = Sessions.create ~seed:cfg.Service.seed cfg.Service.profile in
  let rec session s acc =
    if not (Sessions.finished s) then begin
      ignore (Sessions.op g s ~now:0 : Sessions.op);
      session s (acc + 1)
    end
    else if Sessions.complete g s then session (Sessions.connect g) acc
    else acc
  in
  let rec arrivals now acc =
    match Sessions.next_arrival g ~now with
    | None -> acc
    | Some gap -> arrivals (now + gap) (session (Sessions.connect g) acc)
  in
  arrivals 0 0

let service_cell ~spec ~(measured : Compose.t) cfg : Agg.plan =
  let boundary = measured.Compose.boundary in
  let id = Printf.sprintf "service/%d/seed%d" cfg.Service.profile.Sessions.sessions cfg.Service.seed in
  let run () =
    Sim.with_fresh_instance @@ fun () ->
    let untraced = if !Spans.on then Some (Spans.span "service.run" (fun () -> Service.run ~boundary spec cfg)) else None in
    let r, c =
      traced ~capacity:service_capacity ~boundary (fun () ->
          Spans.span "service.run.traced" (fun () -> Service.run ~boundary spec cfg))
    in
    let perturbed = match untraced with Some u -> flag (compare u r = 0) | None -> 0 in
    let breaches =
      flag (r.Service.issued = r.Service.committed + r.Service.failed)
      + flag (r.Service.sum_values = r.Service.expected_sum)
      + flag (r.Service.locks_left = 0)
      + flag (r.Service.divergence = 0)
      + check_breaches c + perturbed
    in
    let f = float_of_int in
    let groups = Array.to_list r.Service.per_group in
    let gsum g = f (List.fold_left (fun acc s -> acc + g s) 0 groups) in
    {
      Agg.id;
      attempted = r.Service.issued;
      committed = r.Service.committed;
      failed = r.Service.failed;
      sim_ns = r.Service.end_ns;
      p50_ns = r.Service.p50_ns;
      p99_ns = r.Service.p99_ns;
      samples = r.Service.committed;
      breaches;
      events = 0;
      messages = r.Service.messages;
      digest =
        Printf.sprintf
          "%s issued=%d committed=%d failed=%d msgs=%d end=%d p50=%.0f p99=%.0f sum=%d/%d locks=%d div=%d promo=%d"
          id r.Service.issued r.Service.committed r.Service.failed r.Service.messages r.Service.end_ns
          r.Service.p50_ns r.Service.p99_ns r.Service.sum_values r.Service.expected_sum r.Service.locks_left
          r.Service.divergence r.Service.promotions;
      counters =
        [
          ("service.ops", f r.Service.issued);
          ("epoch.epochs", f r.Service.epochs);
          ("epoch.commit_waits", f r.Service.commit_waits);
          ("epoch.wait_ns", f r.Service.wait_ns);
          ("replog.shipped", f r.Service.rep_shipped);
          ("replog.applied", f r.Service.rep_applied);
          ("replog.dups", f r.Service.rep_dups);
          ("replog.stale", f r.Service.rep_stale);
          ("admission.admitted", gsum (fun s -> s.Service.g_admitted));
          ("admission.shed", gsum (fun s -> s.Service.g_shed));
          ("admission.depth_hw", f (List.fold_left (fun acc s -> Int.max acc s.Service.g_depth_hw) 0 groups));
          ("lease.promotions", f r.Service.promotions);
          ("lease.degraded_reads", f r.Service.degraded_reads);
          ("net.dropped", f r.Service.dropped);
          ("sessions.opened", f r.Service.sessions_opened);
          ("sessions.reconnects", f r.Service.reconnects);
          ("sessions.storm_ops", f r.Service.storm_ops);
        ]
        @ check_counters c;
    }
  in
  { Agg.name = id; offered = offered_ops cfg; run }
