(* The recorder's scheduler (paper §2.2).

   One task at a time; strict priorities with round-robin among equals;
   preemption budgets expressed in RCBs (the recorder programs the PMU
   interrupt for the budget).  Chaos mode (paper §8) perturbs priorities
   and timeslices randomly to surface races that the default deterministic
   schedule would hide — the randomness flows from the recording kernel's
   entropy, and every decision is recorded as a sched event, so replay is
   unaffected. *)

type t = {
  mutable order : int array; (* slots [0, n): round-robin order of tids *)
  mutable n : int;
  base_timeslice_rcbs : int;
  chaos : bool;
  entropy : Entropy.t;
  chaos_prio : (int, int) Hashtbl.t;
  mutable picks_until_reshuffle : int;
}

let create ?(timeslice_rcbs = 50_000) ?(chaos = false) ~seed () =
  { order = [||];
    n = 0;
    base_timeslice_rcbs = timeslice_rcbs;
    chaos;
    entropy = Entropy.create seed;
    chaos_prio = Hashtbl.create 8;
    picks_until_reshuffle = 0 }

let order t = Array.to_list (Array.sub t.order 0 t.n)

(* The slot holding [tid], or -1. *)
let slot t tid =
  let rec go i =
    if i = t.n then -1 else if t.order.(i) = tid then i else go (i + 1)
  in
  go 0

let add_task t tid =
  if slot t tid < 0 then begin
    if t.n = Array.length t.order then begin
      let grown = Array.make (max 16 (2 * t.n)) 0 in
      Array.blit t.order 0 grown 0 t.n;
      t.order <- grown
    end;
    t.order.(t.n) <- tid;
    t.n <- t.n + 1
  end

(* Move a tid to the front of the round-robin order: the next pick in
   its priority class chooses it. *)
let prefer t tid =
  let i = slot t tid in
  if i > 0 then begin
    Array.blit t.order 0 t.order 1 i;
    t.order.(0) <- tid
  end

let remove_task t tid =
  let i = slot t tid in
  if i >= 0 then begin
    Array.blit t.order (i + 1) t.order i (t.n - i - 1);
    t.n <- t.n - 1
  end;
  Hashtbl.remove t.chaos_prio tid

let effective_priority t tid base =
  if t.chaos then
    match Hashtbl.find t.chaos_prio tid with
    | p -> p
    | exception Not_found -> base
  else base

let tm_pick = Telemetry.counter "sched.pick"
let tm_reshuffle = Telemetry.counter "sched.reshuffle"

let reshuffle t =
  Telemetry.incr tm_reshuffle;
  Hashtbl.reset t.chaos_prio;
  for i = 0 to t.n - 1 do
    let tid = t.order.(i) in
    if Entropy.bool t.entropy then
      Hashtbl.replace t.chaos_prio tid (Entropy.range t.entropy (-2) 2)
  done;
  t.picks_until_reshuffle <- Entropy.range t.entropy 3 10

(* Pick the next task: the first runnable tid in the order with the best
   (lowest) effective priority, which round-robins within that class
   because the pick moves to the back of the order.  One pass, and the
   move is a blit. *)
let pick t ~runnable ~priority =
  if t.chaos then begin
    t.picks_until_reshuffle <- t.picks_until_reshuffle - 1;
    if t.picks_until_reshuffle <= 0 then reshuffle t
  end;
  let best = ref (-1) and best_p = ref 0 in
  for i = 0 to t.n - 1 do
    let tid = t.order.(i) in
    if runnable tid then begin
      let p = effective_priority t tid (priority tid) in
      if !best < 0 || p < !best_p then begin
        best := i;
        best_p := p
      end
    end
  done;
  let i = !best in
  if i < 0 then None
  else begin
    let tid = t.order.(i) in
    Array.blit t.order (i + 1) t.order i (t.n - i - 1);
    t.order.(t.n - 1) <- tid;
    Telemetry.incr tm_pick;
    Some tid
  end

let timeslice t =
  if t.chaos then
    (* Log-uniform-ish slices: mostly short, occasionally long. *)
    let scale = 1 lsl Entropy.range t.entropy 0 6 in
    max 500 (t.base_timeslice_rcbs / scale)
  else t.base_timeslice_rcbs
