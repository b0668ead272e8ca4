(* Silo-style epoch batches for group commit.

   An epoch collects members (whatever the caller wants to publish
   together — for the service, prepared cross-shard transactions) along
   with the running max of their proposed timestamps.  The caller arms
   one timer when [add] reports the epoch just opened and, on close,
   commit-waits the *joint* proposal once for the whole batch instead of
   once per member — the amortization this module exists for. *)

type 'a t = {
  epoch_ns : int;  (* 0 = disabled: every member is its own epoch *)
  mutable buf : 'a list;  (* reversed *)
  mutable joint : int;  (* max member proposal of the open epoch *)
  mutable is_open : bool;
  mutable epochs : int;
  mutable members : int;
}

let create ~epoch_ns =
  if epoch_ns < 0 then invalid_arg "Epoch.create: negative epoch_ns";
  { epoch_ns; buf = []; joint = 0; is_open = false; epochs = 0; members = 0 }

let enabled t = t.epoch_ns > 0

(* [true] = this member opened the epoch: the caller arms the close
   timer ([epoch_ns] from now). *)
let add t ~prop x =
  let first = not t.is_open in
  if first then begin
    t.is_open <- true;
    t.joint <- prop;
    t.buf <- [ x ]
  end
  else begin
    t.joint <- Int.max t.joint prop;
    t.buf <- x :: t.buf
  end;
  t.members <- t.members + 1;
  first

let close t =
  if not t.is_open then None
  else begin
    let joint = t.joint and members = List.rev t.buf in
    t.is_open <- false;
    t.buf <- [];
    t.epochs <- t.epochs + 1;
    Some (joint, members)
  end

let epochs t = t.epochs
let total_members t = t.members
