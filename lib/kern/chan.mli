(** Kernel channel objects: pipes and UDP sockets — the blocking-I/O
    substrate that the desched machinery (paper §3.3) exists for.
    Wait queues hold thread ids; the kernel resolves them. *)

type waitq = { mutable waiters : int list }

val waitq : unit -> waitq
val enqueue : waitq -> int -> unit
val dequeue : waitq -> int -> unit
val take_all : waitq -> int list

type pipe = {
  pipe_id : int;
  buf : Buffer.t;
  capacity : int;
  mutable readers : int; (* open read-end descriptors *)
  mutable writers : int;
  read_wait : waitq;
  write_wait : waitq;
}

val make_pipe : id:int -> ?capacity:int -> unit -> pipe

val pipe_readable : pipe -> bool
(** Data available, or EOF (no writers left). *)

val pipe_writable : pipe -> bool

val pipe_peek : pipe -> int -> bytes
(** Up to [len] bytes from the front, left in the pipe. *)

val pipe_drop : pipe -> int -> unit
(** Consume the first [n] bytes, [n] at most what the pipe holds. *)

val pipe_write : pipe -> bytes -> int
(** Append up to the free capacity; returns the bytes accepted. *)

type datagram = { payload : bytes; src_port : int }

type sock = {
  sock_id : int;
  mutable port : int option;
  rx : datagram Queue.t;
  sock_wait : waitq;
}

val make_sock : id:int -> sock
val sock_readable : sock -> bool
val sock_deliver : sock -> datagram -> unit
val sock_take : sock -> datagram
