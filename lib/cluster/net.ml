(* Deterministic multi-node network model.

   A cluster is a set of named nodes — each one a full simulator
   {!Ordo_sim.Engine} instance with its own clock-skew profile — connected
   by links with seeded latency distributions.  Message sends, deliveries
   and timers are events on one cluster-wide discrete-event queue (the
   same [(time, seq)]-keyed heap the engine uses), so a cluster run is as
   deterministic as a single-machine run: same spec, same history.

   Time bases.  The cluster heap advances *cluster time* (ns from run
   start).  Each node also has a reference clock — cluster time shifted by
   the engine's clock epoch and the node's RESET offset — which is what
   protocol code stamps with ({!clock}).  Node clock offsets are folded
   into the per-core RESET offsets of the node's machine model, so code
   running *inside* a node's engine ({!run_node}) sees exactly the same
   skewed clocks as protocol code reading {!clock}: the composed boundary
   measured over messages covers both. *)

module Machine = Ordo_sim.Machine
module Engine = Ordo_sim.Engine
module Heap = Ordo_sim.Heap
module Rng = Ordo_util.Rng
module Topology = Ordo_util.Topology
module Trace = Ordo_trace.Trace

module Spec = struct
  type mode = Fifo | Reorder

  type link = { base_ns : int; jitter_ns : int; overhead_ns : int; mode : mode }

  let default_link = { base_ns = 1_500; jitter_ns = 300; overhead_ns = 80; mode = Fifo }

  type t = {
    nodes : int;
    replicas : int;
    machine_name : string;
    machine : Machine.t;
    skew_ns : int;
    offsets : int array option;
    link : link;
    overrides : ((int * int) * link) list;
    seed : int64;
  }

  let make ?(skew_ns = 2_000) ?offsets ?(link = default_link) ?(overrides = [])
      ?(seed = 11L) ?(replicas = 1) ~machine nodes =
    if nodes < 1 then invalid_arg "Net.Spec.make: need at least one node";
    if replicas < 1 then invalid_arg "Net.Spec.make: need at least one replica per group";
    if nodes mod replicas <> 0 then
      invalid_arg "Net.Spec.make: node count must be a multiple of the replica count";
    (match offsets with
    | Some o when Array.length o <> nodes ->
      invalid_arg "Net.Spec.make: offsets must have one entry per node"
    | _ -> ());
    if skew_ns < 0 then invalid_arg "Net.Spec.make: negative skew";
    match Machine.by_name machine with
    | None -> invalid_arg (Printf.sprintf "Net.Spec.make: unknown machine %S" machine)
    | Some m ->
      {
        nodes;
        replicas;
        machine_name = machine;
        machine = m;
        skew_ns;
        offsets;
        link;
        overrides;
        seed;
      }

  let groups t = t.nodes / t.replicas

  let extend t extra =
    if extra < 0 then invalid_arg "Net.Spec.extend: negative count";
    {
      t with
      nodes = t.nodes + extra;
      offsets = Option.map (fun o -> Array.append o (Array.make extra 0)) t.offsets;
    }

  (* "4xamd", "3x2xamd" (3 shard groups of 2 replicas = 6 nodes), or
     "2xarm:base=500,jitter=50,overhead=0,mode=reorder,skew=0,seed=7".
     A machine name starting with a digit would be ambiguous with the
     replica form; no preset is, and [Machine.by_name] rejects it. *)
  let of_string s =
    let fail fmt = Printf.ksprintf (fun m -> Error m) fmt in
    let head, opts =
      match String.index_opt s ':' with
      | None -> (s, "")
      | Some i -> (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
    in
    match String.index_opt head 'x' with
    | None -> fail "cluster spec %S: expected <groups>[x<replicas>]x<machine>[:opts]" s
    | Some i -> (
      let count = String.sub head 0 i in
      let rest = String.sub head (i + 1) (String.length head - i - 1) in
      (* "3x2xamd": the middle segment is a replica count iff it parses
         as an integer (machine names never do). *)
      let replicas, machine =
        match String.index_opt rest 'x' with
        | Some j when int_of_string_opt (String.sub rest 0 j) <> None ->
          (String.sub rest 0 j, String.sub rest (j + 1) (String.length rest - j - 1))
        | _ -> ("1", rest)
      in
      match int_of_string_opt count with
      | None -> fail "cluster spec %S: bad group count %S" s count
      | Some n when n < 1 -> fail "cluster spec %S: need at least one node" s
      | Some n -> (
        match int_of_string_opt replicas with
        | None -> fail "cluster spec %S: bad replica count %S" s replicas
        | Some r when r < 1 ->
          fail "cluster spec %S: need at least one replica per group (got %d)" s r
        | Some r -> (
        match Machine.by_name machine with
        | None -> fail "cluster spec %S: unknown machine %S" s machine
        | Some _ -> (
          let link = ref default_link and skew = ref 2_000 and seed = ref 11L in
          let err = ref None in
          let set kv =
            if kv <> "" && !err = None then
              match String.index_opt kv '=' with
              | None -> err := Some (Printf.sprintf "bad option %S (want key=value)" kv)
              | Some i -> (
                let k = String.sub kv 0 i
                and v = String.sub kv (i + 1) (String.length kv - i - 1) in
                let num f =
                  match int_of_string_opt v with
                  | Some x when x >= 0 -> f x
                  | _ -> err := Some (Printf.sprintf "bad value %S for %s" v k)
                in
                match k with
                | "base" -> num (fun x -> link := { !link with base_ns = x })
                | "jitter" -> num (fun x -> link := { !link with jitter_ns = x })
                | "overhead" -> num (fun x -> link := { !link with overhead_ns = x })
                | "skew" -> num (fun x -> skew := x)
                | "seed" -> num (fun x -> seed := Int64.of_int x)
                | "mode" -> (
                  match v with
                  | "fifo" -> link := { !link with mode = Fifo }
                  | "reorder" -> link := { !link with mode = Reorder }
                  | _ -> err := Some (Printf.sprintf "bad mode %S (fifo|reorder)" v))
                | _ -> err := Some (Printf.sprintf "unknown option %S" k))
          in
          List.iter set (String.split_on_char ',' opts);
          match !err with
          | Some e -> fail "cluster spec %S: %s" s e
          | None ->
            Ok (make ~skew_ns:!skew ~link:!link ~seed:!seed ~replicas:r ~machine (n * r))))))

  let to_string t =
    let l = t.link in
    let head =
      if t.replicas = 1 then Printf.sprintf "%dx%s" t.nodes t.machine_name
      else Printf.sprintf "%dx%dx%s" (t.nodes / t.replicas) t.replicas t.machine_name
    in
    Printf.sprintf "%s:base=%d,jitter=%d,overhead=%d,mode=%s,skew=%d,seed=%Ld"
      head l.base_ns l.jitter_ns l.overhead_ns
      (match l.mode with Fifo -> "fifo" | Reorder -> "reorder")
      t.skew_ns t.seed

  (* Two shard nodes; node 1's clock runs 5 µs ahead, and the 1→0 link is
     much slower than 0→1.  An NTP-style RTT/2 offset estimate assumes
     symmetric delays, so here it under-estimates the real skew and the
     derived "boundary" admits cross-node clock inversions — the seeded
     negative fixture for the offline checker. *)
  let asymmetric_fixture () =
    let fast = { default_link with base_ns = 500; jitter_ns = 50 } in
    let slow = { fast with base_ns = 6_000 } in
    let t = make ~skew_ns:0 ~offsets:[| 0; 5_000 |] ~link:fast ~seed:23L ~machine:"amd" 2 in
    { t with overrides = [ ((1, 0), slow) ] }
end

type node = {
  inst : Engine.Instance.i;
  machine : Machine.t;  (* node clock offset folded into reset_ns *)
  mutable busy_until : int;
  mutable alive : bool;
  mutable incarnation : int;  (* bumped by kill: pre-death events never reach a restart *)
}

type pend = { node : int; inc : int; fn : unit -> unit }

type 'm t = {
  spec : Spec.t;
  offsets : int array;
  node_tbl : node array;
  q : pend Heap.t;
  mutable handler : int -> int -> 'm -> unit;
  link_rng : Rng.t array array;
  last_arrival : int array array;
  mutable now_ : int;
  mutable sent_ : int;
  mutable delivered_ : int;
  mutable dropped_ : int;
}

let fold_offset (m : Machine.t) off =
  if off = 0 then m
  else { m with Machine.reset_ns = Array.map (fun r -> r - off) m.Machine.reset_ns }

let create (spec : Spec.t) =
  let n = spec.Spec.nodes in
  let offsets =
    match spec.Spec.offsets with
    | Some o -> Array.copy o
    | None ->
      let r = Rng.create ~seed:spec.Spec.seed () in
      let o = Array.make n 0 in
      for i = 1 to n - 1 do
        o.(i) <- (if spec.Spec.skew_ns = 0 then 0 else Rng.int r spec.Spec.skew_ns)
      done;
      o
  in
  let node_tbl =
    Array.init n (fun i ->
        {
          inst = Engine.Instance.create ();
          machine = fold_offset spec.Spec.machine offsets.(i);
          busy_until = 0;
          alive = true;
          incarnation = 0;
        })
  in
  (* One generator per directed link, derived from the spec seed and the
     link's identity only, so latency draws are independent of the global
     interleaving of sends. *)
  let link_rng =
    Array.init n (fun i ->
        Array.init n (fun j ->
            Rng.create
              ~seed:(Int64.add spec.Spec.seed (Int64.of_int (((i * n) + j + 1) * 0x9E3779B9)))
              ()))
  in
  {
    spec;
    offsets;
    node_tbl;
    q = Heap.create ();
    handler = (fun _ _ _ -> ());
    link_rng;
    last_arrival = Array.make_matrix n n min_int;
    now_ = 0;
    sent_ = 0;
    delivered_ = 0;
    dropped_ = 0;
  }

let spec t = t.spec
let nodes t = t.spec.Spec.nodes
let now t = t.now_
let sent t = t.sent_
let delivered t = t.delivered_
let dropped t = t.dropped_
let offset_truth t n = t.offsets.(n)
let on_message t f = t.handler <- f

let link t src dst =
  match List.assoc_opt (src, dst) t.spec.Spec.overrides with
  | Some l -> l
  | None -> t.spec.Spec.link

(* Node reference clock: cluster time on the node's clock scale (its
   core-0 invariant clock).  Cross-node differences of [clock] are exactly
   the node offset differences, the quantity the composed boundary must
   cover. *)
let clock t n =
  t.now_ + Engine.clock_epoch - t.node_tbl.(n).machine.Machine.reset_ns.(0)

let check_node t n name =
  if n < 0 || n >= nodes t then invalid_arg (Printf.sprintf "Net.%s: bad node %d" name n)

let alive t n =
  check_node t n "alive";
  t.node_tbl.(n).alive

(* Crash-stop a node: deliveries and timers addressed to it — including
   events already in flight — are dropped when popped, because they carry
   the incarnation current at schedule time.  The node's engine state is
   untouched (a restarted process with a durable store); protocol-level
   amnesia is the service layer's concern. *)
let kill t n =
  check_node t n "kill";
  let nd = t.node_tbl.(n) in
  if nd.alive then begin
    nd.alive <- false;
    nd.incarnation <- nd.incarnation + 1;
    if Trace.enabled () then
      Trace.emit ~tid:n ~time:t.now_ Trace.Probe ~a:(Trace.intern "net.kill") ~b:n
        ~c:nd.incarnation
  end

let revive t n =
  check_node t n "revive";
  let nd = t.node_tbl.(n) in
  if not nd.alive then begin
    nd.alive <- true;
    nd.busy_until <- t.now_;
    if Trace.enabled () then
      Trace.emit ~tid:n ~time:t.now_ Trace.Probe ~a:(Trace.intern "net.revive") ~b:n
        ~c:nd.incarnation
  end

let at t ~node ~delay fn =
  check_node t node "at";
  if delay < 0 then invalid_arg "Net.at: negative delay";
  Heap.push t.q ~time:(t.now_ + delay) { node; inc = t.node_tbl.(node).incarnation; fn }

let send t ~src ~dst m =
  check_node t src "send";
  check_node t dst "send";
  let l = link t src dst in
  let jitter =
    if l.Spec.jitter_ns = 0 then 0
    else int_of_float (Rng.exponential t.link_rng.(src).(dst) (float_of_int l.Spec.jitter_ns))
  in
  let flight = l.Spec.overhead_ns + l.Spec.base_ns + jitter in
  let arrive =
    match l.Spec.mode with
    | Spec.Reorder -> t.now_ + flight
    | Spec.Fifo ->
      let a = max (t.now_ + flight) (t.last_arrival.(src).(dst) + 1) in
      t.last_arrival.(src).(dst) <- a;
      a
  in
  t.sent_ <- t.sent_ + 1;
  let id = t.sent_ in
  if Trace.enabled () then
    Trace.emit ~tid:src ~time:t.now_ Trace.Probe ~a:(Trace.intern "net.send") ~b:dst ~c:id;
  Heap.push t.q ~time:arrive
    {
      node = dst;
      inc = t.node_tbl.(dst).incarnation;
      fn =
        (fun () ->
          t.delivered_ <- t.delivered_ + 1;
          if Trace.enabled () then
            Trace.emit ~tid:dst ~time:t.now_ Trace.Probe ~a:(Trace.intern "net.recv") ~b:src
              ~c:id;
          t.handler src dst m);
    }

let busy t n ns =
  check_node t n "busy";
  if ns < 0 then invalid_arg "Net.busy: negative duration";
  let nd = t.node_tbl.(n) in
  nd.busy_until <- max nd.busy_until t.now_ + ns

(* Deliveries and timers targeting a busy node are deferred to the instant
   the node frees up (re-pushed in pop order, so FIFO among the deferred).
   Events addressed to a dead node — or to an incarnation that has since
   been killed — are dropped and counted. *)
let step t =
  match Heap.pop t.q with
  | None -> false
  | Some (time, ev) ->
    let nd = t.node_tbl.(ev.node) in
    if (not nd.alive) || ev.inc <> nd.incarnation then t.dropped_ <- t.dropped_ + 1
    else if nd.busy_until > time then Heap.push t.q ~time:nd.busy_until ev
    else begin
      if time > t.now_ then t.now_ <- time;
      ev.fn ()
    end;
    true

let run t = while step t do () done

let run_node t n f =
  check_node t n "run_node";
  let nd = t.node_tbl.(n) in
  Engine.Instance.advance_to nd.inst t.now_;
  let before = Engine.Instance.timeline nd.inst in
  let r = Engine.Instance.scoped nd.inst (fun () -> f nd.machine) in
  let consumed = Engine.Instance.timeline nd.inst - before in
  if consumed > 0 then busy t n consumed;
  r

let default_cores (m : Machine.t) =
  let total = Topology.total_threads m.Machine.topo in
  if total <= 16 then List.init total Fun.id
  else
    let stride = max 1 (total / 16) in
    List.init total Fun.id
    |> List.filter (fun i -> i mod stride = 0)
    |> List.cons (total - 1)
    |> List.sort_uniq compare

let node_boundary ?(runs = 12) ?cores t n =
  run_node t n (fun machine ->
      let module E = (val Ordo_sim.Sim.exec machine) in
      let module B = Ordo_core.Boundary.Make (E) in
      let cores = match cores with Some c -> c | None -> default_cores machine in
      B.measure ~runs ~cores ())
