(* One cell's outcome, and the pure aggregation the benchmark reports
   over a pass of cells. *)

type cell = {
  id : string;
  attempted : int;  (** client ops offered *)
  committed : int;
  failed : int;  (** aborted, given up on, or lost to a hang *)
  sim_ns : int;  (** simulated time the cell's ops span *)
  p50_ns : float;
  p99_ns : float;
  samples : int;  (** latency samples behind [p50_ns]/[p99_ns]; 0 = none *)
  breaches : int;  (** correctness checks the cell failed *)
  events : int;  (** simulator engine events *)
  messages : int;  (** cluster messages delivered *)
  digest : string;  (** the cell's simulated outputs, for cross-pass comparison *)
  counters : (string * float) list;  (** layer counts, summed over a pass *)
}

(* A cell stopped by the watchdog: every op it was offered counts as
   failed, and the hang itself is one breach. *)
let hung ~id ~offered =
  {
    id;
    attempted = offered;
    committed = 0;
    failed = offered;
    sim_ns = 0;
    p50_ns = 0.;
    p99_ns = 0.;
    samples = 0;
    breaches = 1;
    events = 0;
    messages = 0;
    digest = id ^ ":hung";
    counters = [];
  }

let sum f cells = List.fold_left (fun acc c -> acc + f c) 0 cells
let attempted cells = sum (fun c -> c.attempted) cells
let failed cells = sum (fun c -> c.failed) cells
let resolved cells = sum (fun c -> c.committed + c.failed) cells
let breaches cells = sum (fun c -> c.breaches) cells

let failed_share cells =
  let a = attempted cells in
  if a = 0 then 0. else float_of_int (failed cells) /. float_of_int a

let goodput_ops_per_us cells =
  let ns = sum (fun c -> c.sim_ns) cells in
  if ns = 0 then 0. else float_of_int (sum (fun c -> c.committed) cells) /. (float_of_int ns /. 1000.)

let counter name cells =
  List.fold_left
    (fun acc c -> acc +. Option.value (List.assoc_opt name c.counters) ~default:0.)
    0. cells

let counter_max name cells =
  List.fold_left
    (fun acc c -> Float.max acc (Option.value (List.assoc_opt name c.counters) ~default:0.))
    0. cells

let median xs =
  match List.sort compare xs with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(Int.max 0 (Int.min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let measured cells = List.filter (fun c -> c.samples > 0) cells

let mean xs = match xs with [] -> 0. | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Cells report percentiles, not samples, so the workload's p50 and p99
   are the mean over cells of each cell's: every cell moves them, and
   they are steadier across seeds than the worst cell's. *)
let p50_us cells = mean (List.map (fun c -> c.p50_ns /. 1000.) (measured cells))
let p99_us cells = mean (List.map (fun c -> c.p99_ns /. 1000.) (measured cells))

(* The worst cell's p99, with that cell's id and sample count. *)
let worst_p99 cells =
  List.fold_left
    (fun ((best, _, _) as acc) c -> if c.p99_ns /. 1000. > best then (c.p99_ns /. 1000., c.id, c.samples) else acc)
    (0., "-", 0) (measured cells)

let digest cells = Digest.to_hex (Digest.string (String.concat "\n" (List.map (fun c -> c.digest) cells)))

(* A cell to run.  [offered] is the op count a hang charges as failed. *)
type plan = { name : string; offered : int; run : unit -> cell }
