(* Per-cell wall-clock limit.  SIGALRM raises inside the cell at its next
   poll point; the cell's own [Fun.protect] handlers (simulator instance,
   trace sink, spans) unwind, so the next cell starts from clean state. *)

exception Expired

let set_timer seconds =
  ignore (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = 0.; it_value = seconds })

(* [within ~seconds f] is [Some (f ())], or [None] if [f] was still
   running after [seconds]. *)
let within ~seconds f =
  let finished = ref false in
  let old = Sys.signal Sys.sigalrm (Sys.Signal_handle (fun _ -> if not !finished then raise Expired)) in
  let disarm () =
    finished := true;
    set_timer 0.;
    Sys.set_signal Sys.sigalrm old
  in
  set_timer seconds;
  match f () with
  | v ->
    disarm ();
    Some v
  | exception Expired ->
    disarm ();
    None
  | exception e ->
    disarm ();
    raise e
