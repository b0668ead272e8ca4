(* The key-state kernel: Tardis read leases, write stamps, version
   installs and the commit wait, as pure integer rules over one key.

   A read serves at [max(clock, wts)] and *renews* the read lease [rts]
   instead of invalidating anything; a write then stamps above the lease
   (Tardis), so read-mostly keys never bounce between nodes.  A
   cross-shard commit becomes visible only once the clock has passed the
   joint proposal by more than ORDO_BOUNDARY, so its stamp is certainly
   in the past everywhere (the paper's ordering rule at node scale). *)

type t = {
  mutable value : int;
  mutable ver : int;
  mutable wts : int;
  mutable rts : int;
  mutable locked : bool;
}

let make ~value = { value; ver = 0; wts = 0; rts = 0; locked = false }
let write_floor ~floor ~wts ~rts = Int.max floor (Int.max (wts + 1) (rts + 1))
let write_ts k ~floor ~clock = Int.max clock (write_floor ~floor ~wts:k.wts ~rts:k.rts)

let read k ~clock ~lease_ns =
  let ts = Int.max clock k.wts in
  k.rts <- Int.max k.rts (ts + lease_ns);
  ts

let install k ~delta ~ver ~ts =
  k.value <- k.value + delta;
  k.ver <- ver;
  k.wts <- ts;
  k.rts <- Int.max k.rts ts;
  k.locked <- false

let commit_delay ~joint ~boundary ~clock =
  if clock > joint + boundary then 0 else joint + boundary + 1 - clock

let op_ns = 120
let msg_ns = 250
let retry_ns = 400
let max_retries = 8
let lease_ns = 3_000
