(** The pluggable byte-IO layer under the trace store.

    Every trace read and write flows through an {!writer} or {!reader},
    so hostile conditions — a disk that fills up, a recording process
    killed mid-write, a file that rots on a failing drive — can be
    reproduced {e deterministically} by wrapping the real IO in
    {!inject} / {!inject_reader} with a seeded fault plan.  This is what
    lets the fault-injection property tests state "for every injected
    fault, the system either succeeds byte-identically, salvages the
    intact prefix, or fails with a typed error" and actually enumerate
    the faults.

    Contract: {!write} either accepts the whole string or raises
    {!Io_error}; {!read_all} either returns the whole contents or raises
    {!Io_error}.  Partial progress before a failure is visible to the
    caller only through {!written} (and, for buffer-backed writers, the
    buffer itself — which is how tests recover the prefix a crashed
    writer left behind). *)

type error = {
  op : string; (** "open", "write", "read", "close" *)
  path : string;
  reason : string; (** e.g. "ENOSPC", "simulated crash", a [Sys_error] *)
}

exception Io_error of error

val pp_error : error Fmt.t

(** A deterministic fault, positioned by absolute byte offset in the
    ideal (unfaulted) stream.  Write faults apply to writers, read
    faults to readers; each fires at most once. *)
type fault =
  | Write_enospc_after of int
      (** accept the first [n] bytes, then fail with ENOSPC (the prefix
          reaches the device — a classic torn write) *)
  | Write_crash_at of int
      (** the writer is killed at byte [k]: bytes past [k] are lost and
          the writer raises (reason ["simulated crash"]) *)
  | Write_short_at of int
      (** a single short write at byte [k]: the prefix lands, the rest
          of that write is dropped, and the writer fails *)
  | Write_bit_flip of int
      (** flip one bit of byte [n] in passing; the write {e succeeds} —
          silent corruption that only CRCs can catch *)
  | Read_truncate_at of int  (** the reader sees only the first [n] bytes *)
  | Read_bit_flip of int  (** byte [n] comes back with one bit flipped *)
  | Read_fail_at of int
      (** reading fails once [n] bytes have been delivered *)

(** {1 Writers} *)

type writer

val file_writer : string -> writer
(** Write to a fresh file.  Raises {!Io_error} if it cannot be opened. *)

val buffer_writer : ?path:string -> Buffer.t -> writer
(** Write into [b].  [path] labels errors (default ["<buffer>"]). *)

val inject : fault list -> writer -> writer
(** Wrap a writer with a deterministic fault plan.  Read faults in the
    list are ignored. *)

val write : writer -> string -> unit
(** Append the whole string or raise {!Io_error}. *)

val write_sub : writer -> string -> pos:int -> len:int -> unit
(** Append [len] bytes of the string from [pos], where they lie, or
    raise {!Io_error}. *)

val written : writer -> int
(** Bytes accepted so far by this layer. *)

val close_writer : writer -> unit
(** Flush and close (idempotent).  Raises {!Io_error} on failure. *)

val mkdir_if_missing : string -> unit
(** Create a directory unless the path exists.  Raises {!Io_error}. *)

(** {1 Readers} *)

type reader

val file_reader : string -> reader
val string_reader : ?path:string -> string -> reader

val inject_reader : fault list -> reader -> reader
(** Wrap a reader with a fault plan; write faults are ignored. *)

val read_all : reader -> string
(** The whole contents, or {!Io_error}. *)

val reader_path : reader -> string
