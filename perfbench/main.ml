(* perfbench: run one workload and print its result as one JSON line.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   Summary lines come first; the last line of standard output is
   {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
   end-to-end metrics, --trace 1 the per-layer ones (and writes the spans
   to FILE).  Exit 2 on bad arguments or a non-finite metric. *)

module W = Perfbench.Workload
module Agg = Perfbench.Agg

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (x : W.metric) ->
         if not (Float.is_finite x.W.value) then fail "metric %s is not finite" x.W.name;
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" x.W.name x.W.value x.W.unit)
       metrics)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) and spans = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (>= 0)");
      ("--seconds", Arg.Set_float seconds, "S time budget of the repeated passes");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--spans", Arg.Set_string spans, "FILE where --trace 1 writes its spans");
    ]
    (fun a -> fail "unexpected argument %s" a)
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None -> fail "unknown workload %S (known: %s)" !workload (String.concat ", " (List.map (fun (w : W.t) -> w.W.name) W.all))
  in
  if !seed < 0 then fail "--seed must be >= 0";
  if !seconds <= 0. then fail "--seconds must be > 0";
  if !trace <> 0 && !trace <> 1 then fail "--trace must be 0 or 1";
  let o = W.execute w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
  let p99, p99_cell, p99_samples = Agg.worst_p99 o.W.cells in
  Printf.printf "workload %s seed %d: %d cells, %d timed passes, %d traced passes, digest %s\n" w.W.name !seed
    (List.length o.W.cells) (List.length o.W.walls) (List.length o.W.traced_walls) (Agg.digest o.W.cells);
  Printf.printf "pass walls (s): %s\n" (String.concat " " (List.map (Printf.sprintf "%.3f") o.W.walls));
  Printf.printf "p99 %.3f us from cell %s over %d samples; failed share %.6f; invariant breaches %d\n" p99 p99_cell
    p99_samples (Agg.failed_share o.W.cells) (W.breaches o);
  List.iter
    (fun (c : Agg.cell) ->
      Printf.printf "%s %s\n" (if c.Agg.breaches > 0 then "BREACH" else "cell") c.Agg.digest)
    o.W.cells;
  if !trace = 1 && !spans <> "" then Perfbench.Spans.write_chrome !spans;
  let metrics = if !trace = 1 then W.per_layer o else W.end_to_end o in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (W.breaches o = 0) (Agg.attempted o.W.cells) (Agg.failed o.W.cells) (json_metrics metrics)
