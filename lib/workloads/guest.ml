(* Guest program builder: a thin "libc" for writing workload programs.

   Accumulates code and initialized data, provides syscall wrappers
   following the register convention (r0 = nr/result, r1..r6 = args), and
   assembles everything into an {!Image.t}.

   Register etiquette for generated code: r0..r6 are syscall/scratch,
   r7..r12 are workload locals, r13 is the thread pointer, r15 the stack
   pointer. *)

type t = {
  mutable code : Asm.item list; (* reversed chunks *)
  mutable data : (int * string) list;
  mutable cursor : int;
  data_base : int;
  text_base : int;
  mutable label_counter : int;
}

let default_data_base = 0x10_0000
let default_text_base = 0x1000

let create ?(data_base = default_data_base) ?(text_base = default_text_base) ()
    =
  { code = [];
    data = [];
    cursor = data_base;
    data_base;
    text_base;
    label_counter = 0 }

let emit b items = b.code <- List.rev_append items b.code

let fresh_label b prefix =
  b.label_counter <- b.label_counter + 1;
  Printf.sprintf "%s_%d" prefix b.label_counter

(* Reserve [len] bytes of zeroed data; returns the address. *)
let bss b len =
  let addr = b.cursor in
  b.cursor <- addr + ((len + 7) land lnot 7);
  addr

(* Install a NUL-terminated string constant; returns its address. *)
let str b s =
  let addr = b.cursor in
  b.data <- (addr, s ^ "\000") :: b.data;
  b.cursor <- addr + ((String.length s + 8) land lnot 7);
  addr

let blob b s =
  let addr = b.cursor in
  b.data <- (addr, s) :: b.data;
  b.cursor <- addr + ((String.length s + 7) land lnot 7);
  addr

(* Syscall with operand arguments; result lands in r0. *)
let sc nr args =
  Asm.movi 0 nr
  :: List.mapi (fun i op -> Asm.mov (i + 1) op) args
  @ [ Asm.syscall ]

let imm v = Insn.Imm v
let reg r = Insn.Reg r

(* Common wrappers. *)
let sys_exit_group code = sc Sysno.exit_group [ imm code ]
let sys_exit code = sc Sysno.exit [ imm code ]

let sys_open b ~path ~flags =
  let a = str b path in
  sc Sysno.openat [ imm 0; imm a; imm flags ]

let sys_close fd = sc Sysno.close [ fd ]
let sys_read ~fd ~buf ~len = sc Sysno.read [ fd; buf; len ]
let sys_write ~fd ~buf ~len = sc Sysno.write [ fd; buf; len ]
let sys_pipe ~fds_addr = sc Sysno.pipe [ imm fds_addr ]
let sys_gettimeofday ~buf = sc Sysno.gettimeofday [ imm buf ]
let sys_nanosleep ~ns = sc Sysno.nanosleep [ ns; imm 0; imm 0; imm 0; imm 0 ]

let sys_clone_thread ~child_sp =
  sc Sysno.clone [ imm (Sysno.clone_vm lor Sysno.clone_thread); child_sp ]

let sys_fork = sc Sysno.clone [ imm 0; imm 0 ]

let sys_execve b ~path =
  let a = str b path in
  sc Sysno.execve [ imm a ]

let sys_wait4 ~pid ~status_addr = sc Sysno.wait4 [ pid; status_addr; imm 0 ]

let sys_futex ~addr ~op ~v = sc Sysno.futex [ addr; imm op; v ]

let sys_kill ~pid ~signo = sc Sysno.kill [ pid; imm signo ]
let sys_tgkill ~pid ~tid ~signo = sc Sysno.tgkill [ pid; tid; imm signo ]

let sys_sigaction ~signo ~handler ~mask ~flags =
  sc Sysno.rt_sigaction [ imm signo; handler; imm mask; imm flags ]

let sys_sigprocmask ~how ~set = sc Sysno.rt_sigprocmask [ imm how; set; imm 0 ]
let sys_sigreturn = sc Sysno.rt_sigreturn []

let sys_socket = sc Sysno.socket []
let sys_bind ~fd ~port = sc Sysno.bind [ fd; port ]
let sys_sendto ~fd ~buf ~len ~port = sc Sysno.sendto [ fd; buf; len; port ]

let sys_recvfrom ~fd ~buf ~len ~src_addr =
  sc Sysno.recvfrom [ fd; buf; len; src_addr ]

let sys_mmap ~len ~prot ~flags =
  sc Sysno.mmap [ imm 0; len; imm prot; imm flags; imm 0; imm 0 ]

(* A busy-compute loop of [n] iterations.  Clobbers only the syscall
   scratch registers r5/r6, so workload locals in r7..r12 survive. *)
let compute_loop b ~n =
  let l = fresh_label b "compute" in
  [ Asm.movi 5 n;
    Asm.label l;
    Asm.I (Insn.Alu (Insn.Add, 6, Insn.Imm 3));
    Asm.I (Insn.Alu (Insn.Xor, 6, Insn.Imm 0x5a5a));
    Asm.subi 5 1;
    Asm.jnz 5 l ]

(* Check that r0 >= 0, else exit_group(77).  Mirrors the classic
   "cmpl $0xfffff001,%eax" sequence following x86 syscalls — the shapes
   the recorder knows how to patch (paper §3.1). *)
let check_ok b =
  let ok = fresh_label b "ok" in
  [ Asm.jcc Insn.Ge 0 (imm 0) ok ]
  @ sys_exit_group 77
  @ [ Asm.label ok ]

let build b ~name ?(extra_data = 0x40000) ?(stack_size = Image.default_stack_size)
    () =
  let prog = Asm.assemble ~base:b.text_base (List.rev b.code) in
  let data_len = b.cursor - b.data_base + extra_data in
  Image.make ~name
    ~data_maps:[ (b.data_base, data_len) ]
    ~data_init:(List.rev b.data) ~stack_size prog
