(* Physical page frames.

   A page frame can be mapped by several address spaces (after fork, or
   for inherited shared mappings).  [refs] counts mappers; private pages
   with [refs > 1] are copied on write (fork and checkpoints are cheap,
   exactly the property Section 6.1 of the paper relies on for
   checkpoints), while [shared] pages are written in place.

   A frame's bytes are the 4 KB window [off, off + page_size) of
   [bytes].  A frame that [own] has not yet seen borrows its window from
   an immutable source that other frames may map too: [zero_bytes], one
   all-zero buffer, for a frame never written, or the string a
   checkpoint blob was read into, for a frame decoded from one.
   Mapping, forking, unsharing, checkpointing or decoding such a frame
   copies no bytes.  The frame record ([refs], [prot], [shared]) is
   still its own, so PSS and every copy-on-write decision are what they
   would be if it owned its bytes.  [own] copies the window into a
   buffer of the frame's own just before its first write; the write
   gate, [Addr_space.writable_page], is its one caller.  Every
   operation that copies, hashes or compares a frame's bytes reads its
   window alone: a borrowed blob's string is the whole trace.
   tools/check_format.sh rejects a write into a frame's bytes, or an
   assignment to its [bytes] or [off], anywhere but this file. *)

let page_size = 4096
let page_shift = 12

type prot = int

let prot_r = 1
let prot_w = 2
let prot_rw = prot_r lor prot_w

type page = {
  mutable bytes : Bytes.t;
  mutable off : int;
  mutable borrowed : bool;
  mutable refs : int;
  mutable prot : prot;
  mutable shared : bool;
}

(* Never written: every zero frame's bytes until [own], and what
   [is_zero] compares against. *)
let zero_bytes = Bytes.make page_size '\000'

let fresh_page ~prot ~shared =
  { bytes = zero_bytes; off = 0; borrowed = true; refs = 1; prot; shared }

let borrow ~prot ~shared src ~off =
  if off < 0 || off > String.length src - page_size then
    invalid_arg "Mem.borrow";
  { bytes = Bytes.unsafe_of_string src; off; borrowed = true; refs = 0; prot;
    shared }

let page_index addr = addr lsr page_shift
let page_offset addr = addr land (page_size - 1)

let incref p = p.refs <- p.refs + 1

let decref p = p.refs <- p.refs - 1

(* A borrowed window is immutable, so a copy borrows it too. *)
let copy p =
  { p with
    bytes = (if p.borrowed then p.bytes else Bytes.copy p.bytes);
    refs = 0 }

(* Unshare a COW page: the caller keeps the copy, other mappers keep the
   original. *)
let unshare p =
  decref p;
  let q = copy p in
  q.refs <- 1;
  q

let own p =
  if p.borrowed then begin
    p.bytes <- Bytes.sub p.bytes p.off page_size;
    p.off <- 0;
    p.borrowed <- false
  end

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* The windows are within their buffers, so the loads go unchecked,
   eight bytes at a time. *)
let equal_bytes p q =
  let a = p.bytes and b = q.bytes and i = ref 0 in
  while
    !i < page_size && get64u a (p.off + !i) = get64u b (q.off + !i)
  do
    i := !i + 8
  done;
  !i = page_size

(* What [is_zero] compares with; no space maps it. *)
let zero_frame =
  { bytes = zero_bytes; off = 0; borrowed = true; refs = 0; prot = 0;
    shared = false }

let is_zero p = p.bytes == zero_bytes || equal_bytes p zero_frame

(* FNV-style over the window's words, then the high half folded into
   the low one, which is what a table's bucket index reads. *)
let hash p =
  let b = p.bytes and h = ref 0 in
  for i = 0 to (page_size / 8) - 1 do
    h :=
      (!h lxor Int64.to_int (get64u b (p.off + (8 * i)))) * 0x100000001b3
  done;
  (!h lxor (!h lsr 32)) land max_int

(* There is no identity stamp on a frame, so frames are bucketed by a
   hash of their contents and told apart with [==]: frames with equal
   contents share a bucket and cost a linear scan of it. *)
module Identity = struct
  type 'a t = (int, (page * 'a) list ref) Hashtbl.t

  let create () : 'a t = Hashtbl.create 16

  let find_or_add t p make =
    let h = hash p in
    let bucket =
      match Hashtbl.find t h with
      | b -> b
      | exception Not_found ->
        let b = ref [] in
        Hashtbl.replace t h b;
        b
    in
    match List.find_opt (fun (q, _) -> q == p) !bucket with
    | Some (_, v) -> v
    | None ->
      let v = make () in
      bucket := (p, v) :: !bucket;
      v
end

let get_u8 p off = Char.code (Bytes.get p.bytes (p.off + off))
let set_u8 p off v = Bytes.set p.bytes (p.off + off) (Char.chr (v land 0xff))

let get_u64 p off = Int64.to_int (Bytes.get_int64_le p.bytes (p.off + off))
let set_u64 p off v = Bytes.set_int64_le p.bytes (p.off + off) (Int64.of_int v)

let blit_out p off dst dst_off len =
  Bytes.blit p.bytes (p.off + off) dst dst_off len

let blit_in src src_off p off len =
  Bytes.blit_string src src_off p.bytes (p.off + off) len
