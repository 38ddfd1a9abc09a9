(* The per-task performance monitoring unit.

   Reproduces the counter landscape of paper §2.4.1:
   - [rcb] (retired conditional branches) is the one *deterministic*
     counter: it depends only on the user-space instruction sequence.
   - [insns] (instructions retired) and [branches] (all branches retired)
     are nondeterministic: the kernel injects noise into them on
     interrupts (the analogue of restarted instructions and SMM exits).
   - The overflow interrupt does not fire at the programmed count; it
     fires [skid] instructions later (paper §2.4.3 "in practice we often
     observe it firing after dozens more instructions have retired"), so a
     replayer must program it early and finish with breakpoints. *)

type interrupt = { target : int; mutable skid : int; mutable primed : bool }

type t = {
  mutable rcb : int;
  mutable insns : int;
  mutable branches : int;
  mutable interrupt : interrupt option;
}

let create () = { rcb = 0; insns = 0; branches = 0; interrupt = None }

let max_skid = 12

let program_interrupt t ~target ~skid =
  if target < 0 then invalid_arg "Pmu.program_interrupt";
  t.interrupt <- Some { target; skid; primed = false }

let clear_interrupt t = t.interrupt <- None

(* Until the interrupt is primed, a tick only compares [rcb] with the
   target. *)
let ticks_from t =
  match t.interrupt with
  | None -> max_int
  | Some i -> if i.primed then min_int else i.target

(* Called once per retired instruction from [ticks_from] on; true when
   the overflow interrupt fires on this instruction boundary. *)
let tick_interrupt t =
  match t.interrupt with
  | None -> false
  | Some i ->
    if (not i.primed) && t.rcb >= i.target then i.primed <- true;
    if i.primed then begin
      if i.skid <= 0 then begin
        t.interrupt <- None;
        true
      end
      else begin
        i.skid <- i.skid - 1;
        false
      end
    end
    else false

(* Nondeterministic pollution of the non-RCB counters, applied by the
   kernel when an interrupt or fault perturbs the task. *)
let add_noise t entropy =
  t.insns <- t.insns + Entropy.range entropy 0 3;
  t.branches <- t.branches + Entropy.range entropy 0 2

let snapshot t = (t.rcb, t.insns, t.branches)
