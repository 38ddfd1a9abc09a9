(* Kernel channel objects: pipes and UDP sockets.

   These are the blocking-I/O substrate: reads on empty pipes/sockets
   block, which is exactly the case rr's desched machinery (paper §3.3)
   exists for.  Wait queues hold thread ids; the kernel resolves them. *)

type waitq = { mutable waiters : int list }

let waitq () = { waiters = [] }

let enqueue q tid = if not (List.mem tid q.waiters) then q.waiters <- q.waiters @ [ tid ]

let dequeue q tid = q.waiters <- List.filter (fun t -> t <> tid) q.waiters

let take_all q =
  let w = q.waiters in
  q.waiters <- [];
  w

type pipe = {
  pipe_id : int;
  buf : Buffer.t;
  capacity : int;
  mutable readers : int; (* open read-end fds *)
  mutable writers : int;
  read_wait : waitq;
  write_wait : waitq;
}

let make_pipe ~id ?(capacity = 65536) () =
  { pipe_id = id;
    buf = Buffer.create 256;
    capacity;
    readers = 1;
    writers = 1;
    read_wait = waitq ();
    write_wait = waitq () }

let pipe_readable p = Buffer.length p.buf > 0 || p.writers = 0

let pipe_writable p = Buffer.length p.buf < p.capacity || p.readers = 0

(* Up to [len] bytes from the front, left in the pipe. *)
let pipe_peek p len =
  Bytes.of_string (Buffer.sub p.buf 0 (min len (Buffer.length p.buf)))

(* Consume the first [n] bytes. *)
let pipe_drop p n =
  let rest = Buffer.sub p.buf n (Buffer.length p.buf - n) in
  Buffer.clear p.buf;
  Buffer.add_string p.buf rest

let pipe_write p data =
  let room = p.capacity - Buffer.length p.buf in
  let n = min (Bytes.length data) room in
  Buffer.add_subbytes p.buf data 0 n;
  n

type datagram = { payload : bytes; src_port : int }

type sock = {
  sock_id : int;
  mutable port : int option;
  rx : datagram Queue.t;
  sock_wait : waitq;
}

let make_sock ~id = { sock_id = id; port = None; rx = Queue.create (); sock_wait = waitq () }

let sock_readable s = not (Queue.is_empty s.rx)

let sock_deliver s dgram = Queue.push dgram s.rx

let sock_take s = Queue.pop s.rx
