(* Host-entropy source for the simulated machine.

   Everything nondeterministic in the simulation (TSC drift, RDRAND,
   interrupt skid, scheduling jitter, datagram timing) draws from one of
   these generators.  A recording run and a replay run are given different
   seeds on purpose: if replay still reproduces user-space state exactly,
   the recorder really captured every input. *)

type t = { mutable state : int64 }

let create seed = { state = Int64.of_int seed }

(* splitmix64: a small, high-quality, stdlib-free PRNG. *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let bits t = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2)

let int t bound =
  if bound <= 0 then invalid_arg "Entropy.int";
  bits t mod bound

(* [range t lo hi] is uniform-ish in [lo, hi] inclusive. *)
let range t lo hi =
  if hi < lo then invalid_arg "Entropy.range";
  lo + int t (hi - lo + 1)

let bool t = bits t land 1 = 1

let byte t = bits t land 0xff

let state t = t.state
let set_state t s = t.state <- s
