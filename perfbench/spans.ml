(* In-memory spans around the benchmark's own calls into each layer.

   A span records its name, wall-clock start and end, the enclosing span,
   the cell it ran for, and the GC's minor and major word deltas plus the
   peak heap at its end.  Recording is off unless [on] is set, and then
   [span] is a plain call.  Spans stay in memory until [write_chrome]
   dumps them as Chrome trace events at the end of a run. *)

type t = {
  name : string;
  id : int;
  parent : int;  (** -1 at the top level *)
  cell : int;  (** -1 outside any cell *)
  start : float;
  stop : float;
  minor_words : float;
  major_words : float;
  top_heap_words : int;
}

let on = ref false
let recorded : t list ref = ref []
let next_id = ref 0
let open_ids : int list ref = ref []
let current_cell = ref (-1)

let reset () =
  recorded := [];
  next_id := 0;
  open_ids := [];
  current_cell := -1

let major_words () = (Gc.quick_stat ()).Gc.major_words

let span name f =
  if not !on then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    let cell = !current_cell in
    open_ids := id :: !open_ids;
    let minor0 = Gc.minor_words () and major0 = major_words () in
    let start = Unix.gettimeofday () in
    Fun.protect f ~finally:(fun () ->
        let stop = Unix.gettimeofday () in
        let s = Gc.quick_stat () in
        open_ids := List.tl !open_ids;
        recorded :=
          {
            name;
            id;
            parent;
            cell;
            start;
            stop;
            minor_words = Gc.minor_words () -. minor0;
            major_words = s.Gc.major_words -. major0;
            top_heap_words = s.Gc.top_heap_words;
          }
          :: !recorded)
  end

(* Run [f] with spans attributed to cell [id]. *)
let in_cell id f =
  let prev = !current_cell in
  current_cell := id;
  Fun.protect f ~finally:(fun () -> current_cell := prev)

type total = { count : int; seconds : float; minor : float; major : float }

let zero = { count = 0; seconds = 0.; minor = 0.; major = 0. }

let total name =
  List.fold_left
    (fun acc s ->
      if s.name <> name then acc
      else
        {
          count = acc.count + 1;
          seconds = acc.seconds +. (s.stop -. s.start);
          minor = acc.minor +. s.minor_words;
          major = acc.major +. s.major_words;
        })
    zero !recorded

(* Chrome trace-event JSON ("X" complete events, microseconds), loadable
   in Perfetto; one track per cell. *)
let write_chrome path =
  let oc = open_out path in
  let t0 = List.fold_left (fun acc s -> Float.min acc s.start) infinity !recorded in
  output_string oc "{\"traceEvents\":[\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"minor_words\":%.0f,\"major_words\":%.0f,\"top_heap_words\":%d}}\n"
        (if i = 0 then "" else ",")
        s.name (s.cell + 1)
        ((s.start -. t0) *. 1e6)
        ((s.stop -. s.start) *. 1e6)
        s.id s.parent s.minor_words s.major_words s.top_heap_words)
    (List.rev !recorded);
  output_string oc "]}\n";
  close_out oc
