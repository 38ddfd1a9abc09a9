(* An in-memory filesystem with the two sharing features rr's trace
   optimizations need (paper §2.7, §3.9):
   - hard links, used to snapshot memory-mapped executables into traces;
   - copy-on-write block cloning (FICLONE-style), used to snapshot mapped
     files and large read buffers at near-zero cost.

   Regular file data is an array of refcounted 4 KiB blocks.  Cloning
   shares blocks; writing to a shared block copies it.  [disk_usage]
   counts unique live blocks, so clones really are free until modified —
   the property Table 2 measures. *)

let block_size = 4096

type block = { mutable refs : int; bytes : Bytes.t }

type reg = {
  mutable blocks : block option array;
  mutable size : int;
  mutable image : Image.t option; (* "ELF contents" for executables *)
}

type node_kind = Reg of reg | Dir of (string, int) Hashtbl.t

type inode = { ino : int; mutable kind : node_kind; mutable nlink : int }

type t = {
  inodes : (int, inode) Hashtbl.t;
  root : int;
  mutable next_ino : int;
  mutable live_blocks : int; (* unique blocks currently allocated *)
  mutable logical_blocks : int; (* block references including clones *)
}

exception Error of int (* errno *)

let err e = raise (Error e)

let create () =
  let root_tbl : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let root = { ino = 1; kind = Dir root_tbl; nlink = 1 } in
  let inodes = Hashtbl.create 64 in
  Hashtbl.replace inodes 1 root;
  { inodes; root = 1; next_ino = 2; live_blocks = 0; logical_blocks = 0 }

let inode t ino =
  match Hashtbl.find_opt t.inodes ino with
  | Some n -> n
  | None -> err Errno.enoent

let split_path path =
  String.split_on_char '/' path |> List.filter (fun s -> s <> "")

(* Resolve [path] to an inode.  All paths are absolute. *)
let resolve t path =
  let rec walk node = function
    | [] -> node
    | seg :: rest -> (
      match node.kind with
      | Reg _ -> err Errno.enotdir
      | Dir entries -> (
        match Hashtbl.find_opt entries seg with
        | None -> err Errno.enoent
        | Some ino -> walk (inode t ino) rest))
  in
  walk (inode t t.root) (split_path path)

let resolve_opt t path = try Some (resolve t path) with Error _ -> None

(* Resolve the parent directory of [path]; returns (dir entries, leaf). *)
let rec resolve_parent t path =
  match List.rev (split_path path) with
  | [] -> err Errno.einval
  | leaf :: rev_dir ->
    let dir = walk_dir t (List.rev rev_dir) in
    (dir, leaf)

and walk_dir t segs =
  let rec walk node = function
    | [] -> (
      match node.kind with Dir d -> d | Reg _ -> err Errno.enotdir)
    | seg :: rest -> (
      match node.kind with
      | Reg _ -> err Errno.enotdir
      | Dir entries -> (
        match Hashtbl.find_opt entries seg with
        | None -> err Errno.enoent
        | Some ino -> walk (inode t ino) rest))
  in
  walk (inode t t.root) segs

let alloc_ino t =
  let ino = t.next_ino in
  t.next_ino <- ino + 1;
  ino

let mkdir t path =
  let dir, leaf = resolve_parent t path in
  if Hashtbl.mem dir leaf then err Errno.eexist;
  let ino = alloc_ino t in
  Hashtbl.replace t.inodes ino
    { ino; kind = Dir (Hashtbl.create 8); nlink = 1 };
  Hashtbl.replace dir leaf ino

let mkdir_p t path =
  let segs = split_path path in
  ignore
    (List.fold_left
       (fun prefix seg ->
         let p = prefix ^ "/" ^ seg in
         (match resolve_opt t p with
         | Some _ -> ()
         | None -> mkdir t p);
         p)
       "" segs)

let fresh_reg () = { blocks = [||]; size = 0; image = None }

let create_file t path =
  let dir, leaf = resolve_parent t path in
  if Hashtbl.mem dir leaf then err Errno.eexist;
  let ino = alloc_ino t in
  let reg = fresh_reg () in
  Hashtbl.replace t.inodes ino { ino; kind = Reg reg; nlink = 1 };
  Hashtbl.replace dir leaf ino;
  reg

let lookup_reg t path =
  match (resolve t path).kind with Reg r -> r | Dir _ -> err Errno.eisdir

(* Open-for-write helper used by the kernel's openat. *)
let rec open_file t path ~creat ~trunc =
  let node = resolve_opt t path in
  match node with
  | Some n -> (
    match n.kind with
    | Dir _ -> err Errno.eisdir
    | Reg r ->
      if trunc then truncate t r 0;
      r)
  | None ->
    if creat then create_file t path else err Errno.enoent

and drop_block t = function
  | None -> ()
  | Some b ->
    b.refs <- b.refs - 1;
    t.logical_blocks <- t.logical_blocks - 1;
    if b.refs = 0 then t.live_blocks <- t.live_blocks - 1

and truncate t reg new_size =
  let old_nblocks = Array.length reg.blocks in
  let new_nblocks = (new_size + block_size - 1) / block_size in
  if new_nblocks < old_nblocks then begin
    for i = new_nblocks to old_nblocks - 1 do
      drop_block t reg.blocks.(i)
    done;
    reg.blocks <- Array.sub reg.blocks 0 new_nblocks
  end
  else if new_nblocks > old_nblocks then begin
    let b = Array.make new_nblocks None in
    Array.blit reg.blocks 0 b 0 old_nblocks;
    reg.blocks <- b
  end;
  reg.size <- new_size

let ensure_blocks t reg n =
  let old = Array.length reg.blocks in
  if n > old then begin
    let b = Array.make n None in
    Array.blit reg.blocks 0 b 0 old;
    reg.blocks <- b
  end;
  ignore t

let fresh_block t =
  t.live_blocks <- t.live_blocks + 1;
  t.logical_blocks <- t.logical_blocks + 1;
  { refs = 1; bytes = Bytes.make block_size '\000' }

(* A block the caller may write: allocates or unshares as needed. *)
let writable_block t reg i =
  ensure_blocks t reg (i + 1);
  match reg.blocks.(i) with
  | None ->
    let b = fresh_block t in
    reg.blocks.(i) <- Some b;
    b
  | Some b when b.refs > 1 ->
    b.refs <- b.refs - 1;
    t.live_blocks <- t.live_blocks + 1;
    let copy = { refs = 1; bytes = Bytes.copy b.bytes } in
    reg.blocks.(i) <- Some copy;
    copy
  | Some b -> b

let read t reg ~off ~len =
  ignore t;
  if off >= reg.size then Bytes.create 0
  else begin
    let len = min len (reg.size - off) in
    let out = Bytes.make len '\000' in
    let i = ref 0 in
    while !i < len do
      let pos = off + !i in
      let bi = pos / block_size and bo = pos mod block_size in
      let chunk = min (len - !i) (block_size - bo) in
      (if bi < Array.length reg.blocks then
         match reg.blocks.(bi) with
         | Some b -> Bytes.blit b.bytes bo out !i chunk
         | None -> ());
      i := !i + chunk
    done;
    out
  end

let write t reg ~off data =
  let len = Bytes.length data in
  let i = ref 0 in
  while !i < len do
    let pos = off + !i in
    let bi = pos / block_size and bo = pos mod block_size in
    let chunk = min (len - !i) (block_size - bo) in
    let b = writable_block t reg bi in
    Bytes.blit data !i b.bytes bo chunk;
    i := !i + chunk
  done;
  if off + len > reg.size then reg.size <- off + len;
  len

(* FICLONERANGE: share whole blocks when everything is aligned, copy
   otherwise.  Returns the number of blocks shared (for the recorder's
   cloned-blocks accounting). *)
let clone_range t ~src ~src_off ~dst ~dst_off ~len =
  if
    src_off mod block_size = 0
    && dst_off mod block_size = 0
    && (len mod block_size = 0 || src_off + len = src.size)
  then begin
    let nblocks = (len + block_size - 1) / block_size in
    ensure_blocks t dst ((dst_off / block_size) + nblocks);
    let shared = ref 0 in
    for i = 0 to nblocks - 1 do
      let sbi = (src_off / block_size) + i in
      let dbi = (dst_off / block_size) + i in
      drop_block t dst.blocks.(dbi);
      match
        if sbi < Array.length src.blocks then src.blocks.(sbi) else None
      with
      | Some b ->
        b.refs <- b.refs + 1;
        t.logical_blocks <- t.logical_blocks + 1;
        dst.blocks.(dbi) <- Some b;
        incr shared
      | None -> dst.blocks.(dbi) <- None
    done;
    if dst_off + len > dst.size then dst.size <- dst_off + len;
    !shared
  end
  else begin
    let data = read t src ~off:src_off ~len in
    ignore (write t dst ~off:dst_off data);
    0
  end

let clone_file t ~src ~dst_path =
  let dst = create_file t dst_path in
  let shared = clone_range t ~src ~src_off:0 ~dst ~dst_off:0 ~len:src.size in
  dst.image <- src.image;
  (dst, shared)

let link t ~src_path ~dst_path =
  let node = resolve t src_path in
  (match node.kind with Dir _ -> err Errno.eisdir | Reg _ -> ());
  let dir, leaf = resolve_parent t dst_path in
  if Hashtbl.mem dir leaf then err Errno.eexist;
  node.nlink <- node.nlink + 1;
  Hashtbl.replace dir leaf node.ino

let unlink t path =
  let dir, leaf = resolve_parent t path in
  match Hashtbl.find_opt dir leaf with
  | None -> err Errno.enoent
  | Some ino ->
    let node = inode t ino in
    (match node.kind with
    | Dir d -> if Hashtbl.length d > 0 then err Errno.enotempty
    | Reg _ -> ());
    Hashtbl.remove dir leaf;
    node.nlink <- node.nlink - 1;
    if node.nlink = 0 then begin
      (match node.kind with
      | Reg r -> truncate t r 0
      | Dir _ -> ());
      Hashtbl.remove t.inodes ino
    end

let rename t ~src_path ~dst_path =
  let sdir, sleaf = resolve_parent t src_path in
  match Hashtbl.find_opt sdir sleaf with
  | None -> err Errno.enoent
  | Some ino ->
    let ddir, dleaf = resolve_parent t dst_path in
    Hashtbl.remove sdir sleaf;
    Hashtbl.replace ddir dleaf ino

let readdir t path =
  match (resolve t path).kind with
  | Reg _ -> err Errno.enotdir
  | Dir d -> Hashtbl.fold (fun name _ acc -> name :: acc) d [] |> List.sort compare

let file_size reg = reg.size

let set_image reg img = reg.image <- Some img
let get_image reg = reg.image

let disk_usage t = t.live_blocks * block_size
