(** In-memory filesystem with hard links and copy-on-write block cloning
    (FICLONE-style) — the sharing features rr's trace-size optimizations
    rely on (paper §2.7, §3.9). *)

val block_size : int

type block = { mutable refs : int; bytes : Bytes.t }

type reg = {
  mutable blocks : block option array;
  mutable size : int;
  mutable image : Image.t option;
}

type node_kind = Reg of reg | Dir of (string, int) Hashtbl.t

type inode = { ino : int; mutable kind : node_kind; mutable nlink : int }

type t

exception Error of int
(** Carries an {!Errno} value. *)

val create : unit -> t

val resolve : t -> string -> inode
val resolve_opt : t -> string -> inode option
val mkdir : t -> string -> unit
val mkdir_p : t -> string -> unit
val create_file : t -> string -> reg
val lookup_reg : t -> string -> reg
val open_file : t -> string -> creat:bool -> trunc:bool -> reg
val truncate : t -> reg -> int -> unit
val read : t -> reg -> off:int -> len:int -> bytes
val write : t -> reg -> off:int -> bytes -> int

val clone_range :
  t -> src:reg -> src_off:int -> dst:reg -> dst_off:int -> len:int -> int
(** Copy-on-write clone; returns the number of blocks actually shared
    (0 when alignment forced a byte copy). *)

val clone_file : t -> src:reg -> dst_path:string -> reg * int
val link : t -> src_path:string -> dst_path:string -> unit
val unlink : t -> string -> unit
val rename : t -> src_path:string -> dst_path:string -> unit
val readdir : t -> string -> string list
val file_size : reg -> int
val set_image : reg -> Image.t -> unit
val get_image : reg -> Image.t option

val disk_usage : t -> int
(** Unique live blocks × block size: what the "disk" actually holds. *)
