(* Executable images: the simulator's stand-in for ELF binaries.

   An image bundles assembled code, initial data, and a stack size.  The
   kernel's execve loads one into a fresh address space; the recorder
   clones the backing file into the trace so replay can reconstruct the
   mappings (paper §2.3.8, §2.7). *)

type t = {
  name : string;
  prog : Asm.program;
  entry : int;
  data_maps : (int * int) list; (* anonymous rw regions: (addr, len) *)
  data_init : (int * string) list; (* initialized bytes inside those regions *)
  stack_size : int;
}

let default_stack_size = 64 * 1024

let make ~name ?(data_maps = []) ?(data_init = []) ?(stack_size = default_stack_size)
    ?entry prog =
  let entry = match entry with Some e -> e | None -> prog.Asm.base in
  { name; prog; entry; data_maps; data_init; stack_size }

(* Approximate on-disk size, for trace-storage accounting: one "encoded"
   instruction word is 8 bytes, plus initialized data. *)
let byte_size t =
  (Array.length t.prog.Asm.code * 8)
  + List.fold_left (fun acc (_, s) -> acc + String.length s) 0 t.data_init

let load t space =
  Addr_space.text_load space ~base:t.prog.Asm.base t.prog.Asm.code;
  List.iter
    (fun (addr, len) ->
      ignore (Addr_space.map space ~addr ~len ~prot:Mem.prot_rw ()))
    t.data_maps;
  List.iter
    (fun (addr, s) ->
      Addr_space.write_bytes ~force:true space addr (Bytes.of_string s))
    t.data_init;
  let stack_base = Addr_space.stack_top - t.stack_size in
  ignore
    (Addr_space.map space ~addr:stack_base ~len:t.stack_size ~prot:Mem.prot_rw
       ~kind:Addr_space.Stack ());
  ()
