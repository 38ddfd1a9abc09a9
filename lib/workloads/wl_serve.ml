(* The `serve` workload (DESIGN.md §4k): a multi-process server under
   load.  Four roles in one image, split by forks:

     root ── fork ──> server (accept loop on the well-known port:
     │                recvfrom a hello, fork a worker per connection)
     └───── fork ──> loadgen (fork one client per connection)

   Workers bind their own port (client port + 1000) and ack from it, so
   the client learns its peer from the datagram's source address —
   exactly the provenance Conn_track reads back out of the trace.
   Clients stream [requests] datagrams of varying sizes (never 8 bytes,
   the source-address write width), periodically hitting a dead port
   first (the error path), the first [slow_clients] of them sleeping
   before every send. *)

module K = Kernel
module G = Guest
open Wl_common

type params = {
  conns : int;
  requests : int;
  server_work : int;
  client_work : int;
  slow_clients : int;
  err_every : int;
}

let default =
  { conns = 8; requests = 25; server_work = 3_000; client_work = 1_500;
    slow_clients = 2; err_every = 5 }

let accept_port = 5000
let dead_port = 4999
let client_port i = 5100 + i

(* Request lengths walk [12, 107] in steps of 7 starting at 12 + i:
   distinct per client, mixed per request, never 8. *)
let max_payload = 256

let program b p =
  let abuf = G.bss b 2048 (* accept loop's hello buffer *)
  and asrc = G.bss b 8
  and wbuf = G.bss b 2048 (* worker's request buffer *)
  and wsrc = G.bss b 8
  and cbuf = G.bss b 2048 (* client's reply buffer *)
  and csrc = G.bss b 8
  and status_addr = G.bss b 8 in
  let hello = G.blob b (String.make 16 'H') in
  let ack = G.blob b (String.make 16 'A') in
  let payload = G.blob b (String.make max_payload 'Q') in
  G.emit b
    ((* ---- root: fork server, fork loadgen, reap both ---- *)
    G.sys_fork
    @. [ Asm.jz 0 "server" ]
    @. G.sys_fork
    @. [ Asm.jz 0 "loadgen" ]
    @. G.sys_wait4 ~pid:(G.imm (-1)) ~status_addr:(G.imm status_addr)
    @. G.sys_wait4 ~pid:(G.imm (-1)) ~status_addr:(G.imm status_addr)
    @. G.sys_exit_group 0
    (* ---- server: the accept loop ---- *)
    @. [ Asm.label "server" ]
    @. G.sys_socket
    @. [ Asm.movr 7 0 ]
    @. G.sys_bind ~fd:(G.reg 7) ~port:(G.imm accept_port)
    @. [ Asm.movi 11 0 ] (* connections accepted *)
    @. [ Asm.label "acc_loop" ]
    @. [ Asm.jcc Insn.Ge 11 (G.imm p.conns) "acc_reap" ]
    @. G.sys_recvfrom ~fd:(G.reg 7) ~buf:(G.imm abuf) ~len:(G.imm 2048)
         ~src_addr:(G.imm asrc)
    @. [ Asm.movi 9 asrc; Asm.load 10 9 0 ] (* r10 = client's port *)
    @. G.sys_fork
    @. [ Asm.jz 0 "worker" ]
    @. [ Asm.addi 11 1; Asm.jmp "acc_loop" ]
    @. [ Asm.label "acc_reap"; Asm.movi 11 0 ]
    @. [ Asm.label "acc_reap_loop" ]
    @. [ Asm.jcc Insn.Ge 11 (G.imm p.conns) "acc_done" ]
    @. G.sys_wait4 ~pid:(G.imm (-1)) ~status_addr:(G.imm status_addr)
    @. [ Asm.addi 11 1; Asm.jmp "acc_reap_loop" ]
    @. [ Asm.label "acc_done" ]
    @. G.sys_exit_group 0
    (* ---- worker: r10 = client port, inherited from the accept loop ---- *)
    @. [ Asm.label "worker" ]
    @. G.sys_socket
    @. [ Asm.movr 7 0 ]
    @. [ Asm.movr 9 10; Asm.addi 9 1000 ] (* own port: client's + 1000 *)
    @. G.sys_bind ~fd:(G.reg 7) ~port:(G.reg 9)
    @. G.sys_sendto ~fd:(G.reg 7) ~buf:(G.imm ack) ~len:(G.imm 16)
         ~port:(G.reg 10)
    @. [ Asm.movi 11 0 ] (* requests served *)
    @. [ Asm.label "wrk_loop" ]
    @. [ Asm.jcc Insn.Ge 11 (G.imm p.requests) "wrk_done" ]
    @. G.sys_recvfrom ~fd:(G.reg 7) ~buf:(G.imm wbuf) ~len:(G.imm 2048)
         ~src_addr:(G.imm wsrc)
    @. [ Asm.movr 8 0 ] (* request length *)
    @. G.compute_loop b ~n:p.server_work
    @. G.sys_sendto ~fd:(G.reg 7) ~buf:(G.imm wbuf) ~len:(G.reg 8)
         ~port:(G.reg 10)
    (* result check keeps the syscall site patchable (§3.1) *)
    @. [ Asm.jcc Insn.Lt 0 (G.imm 0) "wrk_done" ]
    @. [ Asm.addi 11 1; Asm.jmp "wrk_loop" ]
    @. [ Asm.label "wrk_done" ]
    @. G.sys_exit_group 0
    (* ---- loadgen: fork one client per connection, reap ---- *)
    @. [ Asm.label "loadgen"; Asm.movi 12 0 ]
    @. [ Asm.label "lg_loop" ]
    @. [ Asm.jcc Insn.Ge 12 (G.imm p.conns) "lg_reap" ]
    @. G.sys_fork
    @. [ Asm.jz 0 "client" ]
    @. [ Asm.addi 12 1; Asm.jmp "lg_loop" ]
    @. [ Asm.label "lg_reap"; Asm.movi 11 0 ]
    @. [ Asm.label "lg_reap_loop" ]
    @. [ Asm.jcc Insn.Ge 11 (G.imm p.conns) "lg_done" ]
    @. G.sys_wait4 ~pid:(G.imm (-1)) ~status_addr:(G.imm status_addr)
    @. [ Asm.addi 11 1; Asm.jmp "lg_reap_loop" ]
    @. [ Asm.label "lg_done" ]
    @. G.sys_exit_group 0
    (* ---- client: r12 = index, inherited from the loadgen ---- *)
    @. [ Asm.label "client" ]
    @. G.sys_socket
    @. [ Asm.movr 7 0 ]
    @. [ Asm.movr 8 12; Asm.addi 8 (client_port 0) ]
    @. G.sys_bind ~fd:(G.reg 7) ~port:(G.reg 8)
    (* hello, retried until the accept loop has bound its port *)
    @. [ Asm.label "cli_hello" ]
    @. G.sys_sendto ~fd:(G.reg 7) ~buf:(G.imm hello) ~len:(G.imm 16)
         ~port:(G.imm accept_port)
    @. [ Asm.jcc Insn.Ge 0 (G.imm 0) "cli_helloed" ]
    @. G.sys_nanosleep ~ns:(G.imm 20_000)
    @. [ Asm.jmp "cli_hello" ]
    @. [ Asm.label "cli_helloed" ]
    (* the worker's ack names our peer via the source address *)
    @. G.sys_recvfrom ~fd:(G.reg 7) ~buf:(G.imm cbuf) ~len:(G.imm 2048)
         ~src_addr:(G.imm csrc)
    @. [ Asm.movi 9 csrc; Asm.load 9 9 0 ] (* r9 = worker port *)
    @. [ Asm.movr 10 12; Asm.addi 10 12 ] (* r10 = request length *)
    @. [ Asm.movi 11 p.err_every ] (* dead-port countdown *)
    @. [ Asm.movi 8 0 ] (* requests sent *)
    @. [ Asm.label "cli_loop" ]
    @. [ Asm.jcc Insn.Ge 8 (G.imm p.requests) "cli_done" ]
    @. [ Asm.jcc Insn.Ge 12 (G.imm p.slow_clients) "cli_noslow" ]
    @. G.sys_nanosleep ~ns:(G.imm 50_000)
    @. [ Asm.label "cli_noslow" ]
    @. [ Asm.subi 11 1; Asm.jnz 11 "cli_noerr" ]
    (* the error path: nothing listens on the dead port *)
    @. G.sys_sendto ~fd:(G.reg 7) ~buf:(G.imm payload) ~len:(G.reg 10)
         ~port:(G.imm dead_port)
    @. [ Asm.movi 11 p.err_every ]
    @. [ Asm.label "cli_noerr" ]
    @. G.sys_sendto ~fd:(G.reg 7) ~buf:(G.imm payload) ~len:(G.reg 10)
         ~port:(G.reg 9)
    @. [ Asm.jcc Insn.Lt 0 (G.imm 0) "cli_done" ]
    @. G.sys_recvfrom ~fd:(G.reg 7) ~buf:(G.imm cbuf) ~len:(G.imm 2048)
         ~src_addr:(G.imm csrc)
    @. G.compute_loop b ~n:p.client_work
    @. [ Asm.addi 10 7; Asm.jcc Insn.Lt 10 (G.imm 101) "cli_lenok" ]
    @. [ Asm.subi 10 89 ]
    @. [ Asm.label "cli_lenok" ]
    @. [ Asm.addi 8 1; Asm.jmp "cli_loop" ]
    @. [ Asm.label "cli_done" ]
    @. G.sys_exit_group 0)

let make ?(params = default) () =
  let setup k =
    Vfs.mkdir_p (K.vfs k) "/bin";
    let b = G.create () in
    program b params;
    K.install_image k ~path:"/bin/serve" (G.build b ~name:"serve" ())
  in
  { Workload.name = "serve";
    exe = "/bin/serve";
    setup;
    cores = 2;
    score_based = false }
