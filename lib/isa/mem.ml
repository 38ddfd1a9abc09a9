(* Physical page frames.

   A page frame can be mapped by several address spaces (after fork, or
   for inherited shared mappings).  [refs] counts mappers; private pages
   with [refs > 1] are copied on write (fork and checkpoints are cheap,
   exactly the property Section 6.1 of the paper relies on for
   checkpoints), while [shared] pages are written in place. *)

let page_size = 4096
let page_shift = 12

type prot = int

let prot_r = 1
let prot_w = 2
let prot_x = 4
let prot_rw = prot_r lor prot_w
let prot_rwx = prot_r lor prot_w lor prot_x
let prot_none = 0

type page = {
  mutable bytes : Bytes.t;
  mutable refs : int;
  mutable prot : prot;
  mutable shared : bool;
}

let fresh_page ?(prot = prot_rw) ?(shared = false) () =
  { bytes = Bytes.make page_size '\000'; refs = 1; prot; shared }

let page_index addr = addr lsr page_shift
let page_offset addr = addr land (page_size - 1)

let incref p = p.refs <- p.refs + 1

let decref p = p.refs <- p.refs - 1

(* Unshare a COW page: the caller keeps the copy, other mappers keep the
   original. *)
let unshare p =
  decref p;
  { bytes = Bytes.copy p.bytes; refs = 1; prot = p.prot; shared = p.shared }

(* Never written: the all-zero frame contents [is_zero] compares
   against (a word-at-a-time compare in the runtime). *)
let zero_bytes = Bytes.make page_size '\000'

let is_zero p = Bytes.equal p.bytes zero_bytes

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
