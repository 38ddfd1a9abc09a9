(** Executable images: the simulator's stand-in for ELF binaries. *)

type t = {
  name : string;
  prog : Asm.program;
  entry : int;
  data_maps : (int * int) list;
  data_init : (int * string) list;
  stack_size : int;
}

val default_stack_size : int

val make :
  name:string ->
  ?data_maps:(int * int) list ->
  ?data_init:(int * string) list ->
  ?stack_size:int ->
  ?entry:int ->
  Asm.program ->
  t

val byte_size : t -> int
(** Approximate on-disk size for trace-storage accounting. *)

val load : t -> Addr_space.t -> unit
(** Populate a fresh address space: text, data regions, stack.  Does not
    touch registers; the kernel sets pc/sp. *)
