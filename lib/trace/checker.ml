(* Offline ordering-invariant checker: replay a collected trace and verify
   Ordo's contract.

   Three invariants, from the paper's correctness argument (Section 3):

   1. [cmp_time] never inverts physical order: if clock read A completed
      before clock read B started (simulator reference time), then A's
      value must not be *certainly after* B's value — i.e. never
      [value_A > value_B + boundary].  A violation means the configured
      ORDO_BOUNDARY under-covers the machine's actual skew.
   2. [new_time t] returns a stamp strictly beyond the uncertainty
      window: [result > t + boundary] (probe tag "ordo.new_time").
   3. Committed transactional histories (probe tags "tx.*", emitted by
      the OCC/Hekaton/TL2 retrofits) are serializable in commit-timestamp
      order: the conflict graph over the traced read/write sets is
      acyclic, and no conflict edge runs from a certainly-later commit
      timestamp to a certainly-earlier one.

   One entry point, [check]: a trace with guard events is held to the
   stamp-level variants below (guarded traces), any other to these.  The
   report carries the trace's [dropped] count: a trace that lost events
   never passes, whatever the surviving events say. *)

type tx = {
  tx_tid : int;
  start_ts : int;
  commit_ts : int;
  commit_seq : int;  (* physical order of the commit in the trace *)
  commit_time : int;  (* virtual time of the commit probe *)
  reads : (int * int) list;  (* key, version observed *)
  installs : (int * int * int) list;  (* key, version installed, seq *)
}

type violation =
  | Clock_inversion of { earlier : Trace.event; later : Trace.event; delta : int }
      (** [earlier] completed before [later] started, yet its clock value
          exceeds [later]'s by [delta] > boundary. *)
  | New_time_short of { tid : int; time : int; arg : int; result : int }
  | Stamp_inversion of { earlier : Trace.event; later : Trace.event; delta : int }
      (** Guarded variant of [Clock_inversion]: a guard-issued stamp
          ([guard.ts]) certainly inverts an earlier one even under the
          boundary the guard had in effect when the later stamp was
          issued. *)
  | Edge_inversion of { key : int; from_tx : tx; to_tx : tx }
      (** A conflict edge whose source commit timestamp is certainly
          after its target's. *)
  | Conflict_cycle of tx list

type report = {
  boundary : int;
  clock_reads : int;
  new_times : int;
  stamps : int;  (* guard-issued stamps checked (guarded traces only) *)
  hazards : int;  (* injected hazard events present in the trace *)
  guard_events : int;  (* guard stamps + actions present in the trace *)
  committed : int;
  aborted : int;
  edges : int;
  ambiguous : int;  (* WR edges skipped because a (key, version) had several installers *)
  dropped : int;  (* events the trace's rings lost: the check saw only the rest *)
  violations : violation list;
}

let ok r = r.dropped = 0 && r.violations = []

(* Uncertainty-window arithmetic is shared with the primitive and the
   dynamic race detector ([Ordo_analyze.Hb]) — the checker must judge
   inversions with exactly the comparison the stamps were issued under. *)
module Hb = Ordo_analyze.Hb

(* ---- invariant 1: physical order vs cmp_time ---- *)

(* [xs] is sorted by completion time.  For each item B, the candidate
   witnesses are items that completed before B *started*; among those only
   the maximum value matters, so a two-pointer sweep with a running argmax
   is exact and O(n log n) overall.  The accessors read [xs] in place: raw
   clock reads and guard stamps share the sweep without a copy. *)
let sweep xs ~start ~completion ~value ~bound ~inversion violations =
  let n = Array.length xs in
  let admitted = ref 0 in
  let max_val = ref min_int and max_at = ref (-1) in
  for i = 0 to n - 1 do
    let b = xs.(i) in
    let b_start = start b in
    while !admitted < n && completion xs.(!admitted) <= b_start do
      let v = value xs.(!admitted) in
      if v > !max_val then begin
        max_val := v;
        max_at := !admitted
      end;
      incr admitted
    done;
    if !max_at >= 0 && Hb.inverts ~boundary:(bound b) ~earlier:!max_val ~later:(value b) then
      violations := inversion xs.(!max_at) b (!max_val - value b) :: !violations
  done;
  n

(* ---- invariant 2: new_time strictly exceeds t + boundary ---- *)

let check_new_times ~boundary t (events : Trace.event array) violations =
  match Trace.find_tag t "ordo.new_time" with
  | None -> 0
  | Some tag ->
    let n = ref 0 in
    Array.iter
      (fun (e : Trace.event) ->
        if e.kind = Trace.Probe && e.a = tag then begin
          incr n;
          if not (Hb.certainly_after ~boundary e.c e.b) then
            violations := New_time_short { tid = e.tid; time = e.time; arg = e.b; result = e.c } :: !violations
        end)
      events;
    !n

(* ---- invariant 3: commit-timestamp-order serializability ---- *)

(* Rebuild per-thread transactions from the tx.* probe stream.  The
   per-thread subsequence of the sorted event array preserves emission
   order (a simulated thread's local time never decreases), so a simple
   state machine per tid suffices. *)
let reconstruct t (events : Trace.event array) =
  let tag name = Trace.find_tag t name in
  match tag "tx.begin" with
  | None -> ([], 0)
  | Some tg_begin ->
    let tg_read = tag "tx.read" and tg_install = tag "tx.install" in
    let tg_commit = tag "tx.commit" and tg_abort = tag "tx.abort" in
    let is tg (e : Trace.event) = match tg with Some id -> e.a = id | None -> false in
    let open_tx : (int, tx) Hashtbl.t = Hashtbl.create 16 in
    let committed = ref [] and aborted = ref 0 in
    Array.iter
      (fun (e : Trace.event) ->
        if e.kind = Trace.Probe then begin
          if e.a = tg_begin then
            Hashtbl.replace open_tx e.tid
              {
                tx_tid = e.tid;
                start_ts = e.b;
                commit_ts = 0;
                commit_seq = 0;
                commit_time = 0;
                reads = [];
                installs = [];
              }
          else
            match Hashtbl.find_opt open_tx e.tid with
            | None -> ()
            | Some tx ->
              if is tg_read e then
                Hashtbl.replace open_tx e.tid { tx with reads = (e.b, e.c) :: tx.reads }
              else if is tg_install e then
                Hashtbl.replace open_tx e.tid
                  { tx with installs = (e.b, e.c, e.seq) :: tx.installs }
              else if is tg_commit e then begin
                committed :=
                  { tx with commit_ts = e.b; commit_seq = e.seq; commit_time = e.time }
                  :: !committed;
                Hashtbl.remove open_tx e.tid
              end
              else if is tg_abort e then begin
                incr aborted;
                Hashtbl.remove open_tx e.tid
              end
        end)
      events;
    (List.rev !committed, !aborted)

(* [bound_of u w] gives the boundary to test a conflict edge against —
   constant for plain checks, the inflated bound in effect once both
   commits existed for guarded checks. *)
let check_history ~bound_of txs violations =
  let txs = Array.of_list txs in
  let n = Array.length txs in
  (* Install order per key: (version, installer, seq) ascending by seq. *)
  let installs : (int, (int * int * int) list) Hashtbl.t = Hashtbl.create 64 in
  Array.iteri
    (fun i tx ->
      List.iter
        (fun (key, ver, seq) ->
          let l = Option.value ~default:[] (Hashtbl.find_opt installs key) in
          Hashtbl.replace installs key ((ver, i, seq) :: l))
        tx.installs)
    txs;
  let by_key = Hashtbl.create 64 in
  Hashtbl.iter
    (fun key l ->
      Hashtbl.replace by_key key
        (List.sort (fun (_, _, s1) (_, _, s2) -> compare s1 s2) l))
    installs;
  let ambiguous = ref 0 in
  (* installer_of key ver: unique tx that installed [ver] on [key]. *)
  let installer_of key ver =
    match Hashtbl.find_opt by_key key with
    | None -> None
    | Some l ->
      (match List.filter (fun (v, _, _) -> v = ver) l with
      | [ (_, i, _) ] -> Some i
      | [] -> None
      | _ ->
        incr ambiguous;
        None)
  in
  (* successor_of key ver: the tx whose install immediately overwrote
     version [ver] on [key] (RW edge target).  ver = 0 is the unborn
     initial version, overwritten by the first install. *)
  let successor_of key ver =
    match Hashtbl.find_opt by_key key with
    | None -> None
    | Some l ->
      if ver = 0 then (match l with (_, i, _) :: _ -> Some i | [] -> None)
      else if List.length (List.filter (fun (v, _, _) -> v = ver) l) > 1 then begin
        incr ambiguous;
        None
      end
      else
        let rec scan = function
          | (v, _, _) :: ((_, i2, _) :: _ as rest) ->
            if v = ver then Some i2 else scan rest
          | _ -> None
        in
        scan l
  in
  let edges : (int * int * int) list ref = ref [] in
  let add_edge u w key = if u <> w then edges := (u, w, key) :: !edges in
  (* WW: consecutive installs of the same key. *)
  Hashtbl.iter
    (fun key l ->
      let rec pairs = function
        | (_, u, _) :: ((_, w, _) :: _ as rest) ->
          add_edge u w key;
          pairs rest
        | _ -> ()
      in
      pairs l)
    by_key;
  (* WR and RW edges from each committed read. *)
  Array.iteri
    (fun i tx ->
      List.iter
        (fun (key, ver) ->
          (if ver <> 0 then
             match installer_of key ver with Some u -> add_edge u i key | None -> ());
          match successor_of key ver with Some w -> add_edge i w key | None -> ())
        tx.reads)
    txs;
  (* Timestamp order along every edge. *)
  List.iter
    (fun (u, w, key) ->
      let b = bound_of txs.(u) txs.(w) in
      if Hb.inverts ~boundary:b ~earlier:txs.(u).commit_ts ~later:txs.(w).commit_ts then
        violations := Edge_inversion { key; from_tx = txs.(u); to_tx = txs.(w) } :: !violations)
    !edges;
  (* Acyclicity (DFS, first cycle reported). *)
  let adj = Array.make n [] in
  List.iter (fun (u, w, _) -> adj.(u) <- w :: adj.(u)) !edges;
  let color = Array.make n 0 in
  let cycle = ref None in
  let rec dfs path u =
    if !cycle = None then
      if color.(u) = 1 then begin
        let rec take acc = function
          | [] -> acc
          | v :: _ when v = u -> v :: acc
          | v :: rest -> take (v :: acc) rest
        in
        cycle := Some (take [] path)
      end
      else if color.(u) = 0 then begin
        color.(u) <- 1;
        List.iter (dfs (u :: path)) adj.(u);
        color.(u) <- 2
      end
  in
  for u = 0 to n - 1 do
    dfs [] u
  done;
  (match !cycle with
  | Some nodes -> violations := Conflict_cycle (List.map (fun i -> txs.(i)) nodes) :: !violations
  | None -> ());
  (List.length !edges, !ambiguous)

(* ---- guarded traces: the same invariants against the guard's dynamic bound ----

   A guarded run replaces raw clock reads with guard-issued stamps
   ([guard.ts] events: b = stamp value, c = boundary in effect when it
   was issued).  Raw reads may legitimately invert physical order in the
   window between a hazard firing and its detection — the guard's whole
   point is that no such raw value ever *escapes* to the application —
   so a guarded trace is checked at the stamp level instead:

   1'. No issued stamp is certainly-after a stamp whose read completed
       before its own read started, judged against the *later* stamp's
       issue-time boundary.  Sound because the guard only ever inflates
       the bound: any comparison the application performs happens at or
       after the later issue, under a bound at least that large.
   2'. [new_time t] probes clear [t + boundary0] (the configured floor;
       the guard itself enforces the inflated bound at issue, which can
       race with a concurrent inflation and is therefore not re-judged
       here).
   3'. Conflict edges are judged against the bound in effect once both
       commit stamps existed. *)

(* Each guard.ts stamp is produced by exactly one raw clock read on the
   same thread just before it; pair them up to recover the read window
   (start = completion - cost).  Fallback-mode stamps read a logical
   counter and have no matching [Clock_read]; their window degenerates to
   the emission instant, which is conservative and can never flag (the
   counter is monotone). *)
let guard_stamps (t : Trace.t) =
  match Trace.find_tag t Trace.tag_guard_ts with
  | None -> [||]
  | Some tag ->
    let last_read : (int, Trace.event) Hashtbl.t = Hashtbl.create 64 in
    let stamps = ref [] in
    Array.iter
      (fun (e : Trace.event) ->
        match e.kind with
        | Trace.Clock_read -> Hashtbl.replace last_read e.tid e
        | Trace.Guard when e.a = tag ->
          let start, completion =
            match Hashtbl.find_opt last_read e.tid with
            | Some (r : Trace.event) when r.a = e.b -> (r.time - r.c, r.time)
            | _ -> (e.time, e.time)
          in
          stamps := (start, completion, e) :: !stamps
        | _ -> ())
      t.events;
    let a = Array.of_list !stamps in
    Array.sort (fun (_, c1, (e1 : Trace.event)) (_, c2, (e2 : Trace.event)) ->
        if c1 <> c2 then compare c1 c2 else compare e1.seq e2.seq) a;
    a

(* The bound a conflict edge [u -> w] is judged against (3'): the guard's
   boundary once both commits existed, from its guard.bound /
   guard.remeasure events (b = the new bound).  The bound is monotone, so
   the running maximum up to that time is exact. *)
let edge_bound ~boundary0 (t : Trace.t) =
  let interesting tag = tag = Trace.tag_guard_bound || tag = Trace.tag_guard_remeasure in
  let changes =
    Array.to_list t.events
    |> List.filter_map (fun (e : Trace.event) ->
           match e.kind with
           | Trace.Guard when interesting (Trace.tag_name t e.a) -> Some (e.time, e.b)
           | _ -> None)
  in
  fun u w ->
    let time = max u.commit_time w.commit_time in
    List.fold_left
      (fun acc (at, b) -> if at <= time && b > acc then b else acc)
      boundary0 changes

let count_kind k (events : Trace.event array) =
  Array.fold_left (fun n (e : Trace.event) -> if e.kind = k then n + 1 else n) 0 events

let check ~boundary (t : Trace.t) =
  if boundary < 0 then invalid_arg "Checker.check: negative boundary";
  let guard_events = count_kind Trace.Guard t.events in
  let guarded = guard_events > 0 in
  let violations = ref [] in
  let swept =
    if guarded then
      sweep (guard_stamps t)
        ~start:(fun (s, _, _) -> s)
        ~completion:(fun (_, c, _) -> c)
        ~value:(fun (_, _, (e : Trace.event)) -> e.b)
        ~bound:(fun (_, _, (e : Trace.event)) -> e.c)
        ~inversion:(fun (_, _, earlier) (_, _, later) delta ->
          Stamp_inversion { earlier; later; delta })
        violations
    else
      sweep
        (Array.of_list
           (List.filter (fun (e : Trace.event) -> e.kind = Trace.Clock_read) (Array.to_list t.events)))
        ~start:(fun (e : Trace.event) -> e.time - e.c)
        ~completion:(fun (e : Trace.event) -> e.time)
        ~value:(fun (e : Trace.event) -> e.a)
        ~bound:(fun _ -> boundary)
        ~inversion:(fun earlier later delta -> Clock_inversion { earlier; later; delta })
        violations
  in
  let new_times = check_new_times ~boundary t t.events violations in
  let txs, aborted = reconstruct t t.events in
  let bound_of = if guarded then edge_bound ~boundary0:boundary t else fun _ _ -> boundary in
  let edges, ambiguous = check_history ~bound_of txs violations in
  {
    boundary;
    clock_reads = (if guarded then 0 else swept);
    new_times;
    stamps = (if guarded then swept else 0);
    hazards = count_kind Trace.Hazard t.events;
    guard_events;
    committed = List.length txs;
    aborted;
    edges;
    ambiguous;
    dropped = t.dropped;
    violations = List.rev !violations;
  }

(* ---- reporting ---- *)

let describe_violation = function
  | Clock_inversion { earlier; later; delta } ->
    Printf.sprintf
      "clock inversion: core %d read %d at vt=%d, then core %d read %d at vt=%d — the earlier \
       read is ahead by %d ns (> boundary); cmp_time would invert this happens-before edge"
      earlier.Trace.tid earlier.Trace.a earlier.Trace.time later.Trace.tid later.Trace.a
      later.Trace.time delta
  | New_time_short { tid; time; arg; result } ->
    Printf.sprintf
      "new_time too small: core %d at vt=%d returned %d for new_time(%d) — not strictly beyond \
       t + boundary" tid time result arg
  | Stamp_inversion { earlier; later; delta } ->
    Printf.sprintf
      "stamp inversion: core %d was issued %d at vt=%d, then core %d was issued %d at vt=%d — \
       the earlier stamp is ahead by %d ns, beyond even the guard's inflated bound (%d ns)"
      earlier.Trace.tid earlier.Trace.b earlier.Trace.time later.Trace.tid later.Trace.b
      later.Trace.time delta later.Trace.c
  | Edge_inversion { key; from_tx; to_tx } ->
    Printf.sprintf
      "commit-order inversion on key %d: tx(core %d, commit_ts %d) conflicts-into tx(core %d, \
       commit_ts %d) yet its timestamp is certainly later"
      key from_tx.tx_tid from_tx.commit_ts to_tx.tx_tid to_tx.commit_ts
  | Conflict_cycle txs ->
    Printf.sprintf "conflict cycle over %d committed txs: %s" (List.length txs)
      (String.concat " -> "
         (List.map (fun tx -> Printf.sprintf "(core %d, ts %d)" tx.tx_tid tx.commit_ts) txs))

let incomplete r = Printf.sprintf "incomplete (%d events dropped)" r.dropped

(* A trace whose rings dropped events certifies nothing, whatever the
   surviving events say: coverage comes first in both renderings. *)
let describe r =
  if r.dropped > 0 then [ "checker: " ^ incomplete r ]
  else
    let reads =
      if r.stamps > 0 then Printf.sprintf "%d guard stamps" r.stamps
      else Printf.sprintf "%d clock reads" r.clock_reads
    in
    let hazards =
      if r.hazards > 0 || r.guard_events > 0 then
        Printf.sprintf " [%d hazards, %d guard events]" r.hazards r.guard_events
      else ""
    in
    Printf.sprintf
      "checked %s, %d new_time calls, %d committed txs (%d aborted, %d conflict \
       edges, %d ambiguous) against boundary %d ns%s: %s"
      reads r.new_times r.committed r.aborted r.edges r.ambiguous r.boundary hazards
      (if r.violations = [] then "OK"
       else Printf.sprintf "%d VIOLATIONS" (List.length r.violations))
    :: List.map describe_violation r.violations

(* The verdict line (or, [~terse], the bench column) for a checked run,
   and whether it passes. *)
let verdict ?(terse = false) r =
  if r.dropped > 0 then (false, incomplete r)
  else if ok r then (true, if terse then "ok" else "ok (0 violations)")
  else
    ( false,
      Printf.sprintf
        (if terse then "%d violations" else "%d violation(s)")
        (List.length r.violations) )
