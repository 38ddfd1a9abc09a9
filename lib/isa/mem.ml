(* Physical page frames.

   A page frame can be mapped by several address spaces (after fork, or
   for inherited shared mappings).  [refs] counts mappers; private pages
   with [refs > 1] are copied on write (fork and checkpoints are cheap,
   exactly the property Section 6.1 of the paper relies on for
   checkpoints), while [shared] pages are written in place.

   A frame that has never been written maps [zero_bytes], one immutable
   all-zero buffer, so mapping, forking, unsharing, checkpointing or
   decoding a zero frame copies no bytes.  The frame record ([refs],
   [prot], [shared]) is still its own, so PSS and every copy-on-write
   decision are what they would be if it owned its bytes.  [own] gives
   a frame its own buffer just before its first write; the write gate,
   [Addr_space.writable_page], is its one caller, and
   tools/check_format.sh rejects a write into a frame's bytes anywhere
   else. *)

let page_size = 4096
let page_shift = 12

type prot = int

let prot_r = 1
let prot_w = 2
let prot_rw = prot_r lor prot_w

type page = {
  mutable bytes : Bytes.t;
  mutable refs : int;
  mutable prot : prot;
  mutable shared : bool;
}

(* Never written: every zero frame's bytes until [own], and what
   [is_zero] compares against. *)
let zero_bytes = Bytes.make page_size '\000'

let fresh_page ~prot ~shared = { bytes = zero_bytes; refs = 1; prot; shared }

let page_index addr = addr lsr page_shift
let page_offset addr = addr land (page_size - 1)

let incref p = p.refs <- p.refs + 1

let decref p = p.refs <- p.refs - 1

let copy p =
  { p with
    bytes = (if p.bytes == zero_bytes then zero_bytes else Bytes.copy p.bytes);
    refs = 0 }

(* Unshare a COW page: the caller keeps the copy, other mappers keep the
   original. *)
let unshare p =
  decref p;
  let q = copy p in
  q.refs <- 1;
  q

let own p = if p.bytes == zero_bytes then p.bytes <- Bytes.make page_size '\000'

let is_zero p = p.bytes == zero_bytes || Bytes.equal p.bytes zero_bytes

(* There is no identity stamp on a frame, so frames are bucketed by a
   hash of their contents and told apart with [==]: frames with equal
   contents share a bucket and cost a linear scan of it. *)
module Identity = struct
  type 'a t = (int, (page * 'a) list ref) Hashtbl.t

  let create () : 'a t = Hashtbl.create 16

  let find_or_add t p make =
    let h = Hashtbl.hash p.bytes in
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

let get_u8 p off = Char.code (Bytes.get p.bytes off)
let set_u8 p off v = Bytes.set p.bytes off (Char.chr (v land 0xff))
