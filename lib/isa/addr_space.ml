(* Guest address spaces.

   Data memory is byte-addressed and backed by COW page frames ({!Mem}).
   Code is word-addressed and lives in a separate text map (a Harvard
   simplification, see DESIGN.md §6): the program counter indexes [text],
   and patching a syscall site is a single-slot update, which is the moral
   equivalent of rr rewriting the two-byte x86 syscall instruction.

   The text map is paged: a table of 1024-slot arrays keyed by
   [addr asr 10], each slot holding the instruction's [Some] built once
   when it was written.  The space caches the page of the last fetch, so
   a fetch that stays on that page neither hashes nor allocates — the
   interpreter's per-instruction path.  Three rules keep the cache exact:
   - writes ([text_set], [text_load], [text_write]) land in the slot in
     place, so an [Emit] is seen by the very next fetch;
   - [fork] copies the pages, so parent and child never share a slot;
   - exec's [unmap_all] drops the pages and the cache.
   On a 2-vCPU Xeon VM, [python3 perfbench/run.py --workload jit_compute
   --seed 1 --seconds 35 --trace 1] reads isa.minsn_per_s 34.6 and
   gc.record_alloc_mb 6.2 with this map, against 14.2 and 178.2 with a
   per-address hash table (DESIGN.md §6).

   Data accesses still look their frame up in [pages] on every access.
   Loads and stores are about 3% of jit_compute's instructions, so no
   benchmark workload could show a data-page TLB paying for its
   invalidation; there is none yet.

   [written_text] remembers addresses written at run time ([Emit]): the
   replayer must not set software breakpoints there and falls back to the
   SYSEMU-style path (paper §2.3.7). *)

type access = Read | Write | Exec

exception Segv of { addr : int; access : access }

type kind =
  | Anon
  | Stack
  | File_backed of { path : string; file_off : int }
  | Scratch
  | Rr_page
  | Thread_locals

type region = {
  start : int;
  len : int;
  prot : Mem.prot;
  kind : kind;
  shared : bool;
}

type text = {
  text_pages : (int, Insn.t option array) Hashtbl.t; (* addr asr 10 -> slots *)
  mutable cached_key : int;
  mutable cached : Insn.t option array;
}

type t = {
  id : int;
  pages : (int, Mem.page) Hashtbl.t;
  text : text;
  written_text : (int, unit) Hashtbl.t;
  breakpoints : (int, unit) Hashtbl.t;
  mutable regions : region list; (* sorted by start *)
  mutable mmap_cursor : int;
}

let text_page_bits = 10
let text_page_slots = 1 lsl text_page_bits

(* [addr asr text_page_bits] never reaches [min_int], so it marks an
   empty cache. *)
let no_text_page = min_int

let text_of_pages text_pages =
  { text_pages; cached_key = no_text_page; cached = [||] }

let mmap_base = 0x1000_0000
let stack_top = 0x7ff0_0000

let create ~id =
  { id;
    pages = Hashtbl.create 256;
    text = text_of_pages (Hashtbl.create 16);
    written_text = Hashtbl.create 16;
    breakpoints = Hashtbl.create 16;
    regions = [];
    mmap_cursor = mmap_base }

let page_count addr len =
  if len <= 0 then 0
  else Mem.page_index (addr + len - 1) - Mem.page_index addr + 1

let regions t = t.regions

let find_region t addr =
  List.find_opt (fun r -> addr >= r.start && addr < r.start + r.len) t.regions

let insert_region t r =
  let rec insert = function
    | [] -> [ r ]
    | hd :: tl when hd.start < r.start -> hd :: insert tl
    | rest -> r :: rest
  in
  t.regions <- insert t.regions

let overlaps t ~addr ~len =
  List.exists
    (fun r -> addr < r.start + r.len && r.start < addr + len)
    t.regions

(* Map [len] bytes at [addr] (both page-aligned in practice; we align for
   callers).  Pages are created eagerly so that fork-inherited shared
   mappings alias the same frames. *)
let map t ~addr ~len ~prot ?(kind = Anon) ?(shared = false) () =
  let addr = addr land lnot (Mem.page_size - 1) in
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  if len = 0 then invalid_arg "Addr_space.map: empty";
  if overlaps t ~addr ~len then invalid_arg "Addr_space.map: overlap";
  insert_region t { start = addr; len; prot; kind; shared };
  let first = Mem.page_index addr in
  for i = first to first + page_count addr len - 1 do
    Hashtbl.replace t.pages i (Mem.fresh_page ~prot ~shared ())
  done;
  addr

let find_map_addr t len =
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  let rec search addr =
    if overlaps t ~addr ~len then search (addr + Mem.page_size) else addr
  in
  let addr = search t.mmap_cursor in
  t.mmap_cursor <- addr + len;
  addr

let unmap t ~addr ~len =
  let addr = addr land lnot (Mem.page_size - 1) in
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  let hi = addr + len in
  let keep, drop =
    List.partition (fun r -> r.start + r.len <= addr || r.start >= hi) t.regions
  in
  (* Split partially covered regions. *)
  let fragments =
    List.concat_map
      (fun r ->
        let pieces = ref [] in
        if r.start < addr then
          pieces := { r with len = addr - r.start } :: !pieces;
        if r.start + r.len > hi then
          pieces :=
            { r with start = hi; len = r.start + r.len - hi } :: !pieces;
        !pieces)
      drop
  in
  t.regions <- List.sort (fun a b -> compare a.start b.start) (keep @ fragments);
  let first = Mem.page_index addr in
  for i = first to first + page_count addr len - 1 do
    match Hashtbl.find_opt t.pages i with
    | Some p ->
      Mem.decref p;
      Hashtbl.remove t.pages i
    | None -> ()
  done

let unmap_all t =
  Hashtbl.iter (fun _ p -> Mem.decref p) t.pages;
  Hashtbl.reset t.pages;
  t.regions <- [];
  Hashtbl.reset t.text.text_pages;
  t.text.cached_key <- no_text_page;
  t.text.cached <- [||];
  Hashtbl.reset t.written_text;
  Hashtbl.reset t.breakpoints;
  t.mmap_cursor <- mmap_base

(* mprotect: per-frame protection.  A COW frame shared with another space
   must be unshared first so the other space's protections are unaffected.
   Region records are immutable and shared by forks and checkpoints, so
   each overlapping one is replaced, never updated in place. *)
let protect t ~addr ~len ~prot =
  let addr = addr land lnot (Mem.page_size - 1) in
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  t.regions <-
    List.map
      (fun r ->
        if addr < r.start + r.len && r.start < addr + len then { r with prot }
        else r)
      t.regions;
  let first = Mem.page_index addr in
  for i = first to first + page_count addr len - 1 do
    match Hashtbl.find_opt t.pages i with
    | Some p ->
      let p =
        if p.Mem.refs > 1 && not p.Mem.shared then begin
          let q = Mem.unshare p in
          Hashtbl.replace t.pages i q;
          q
        end
        else p
      in
      p.Mem.prot <- prot
    | None -> ()
  done

let get_page t addr access =
  match Hashtbl.find t.pages (Mem.page_index addr) with
  | p -> p
  | exception Not_found -> raise (Segv { addr; access })

let readable_page t addr ~force =
  let p = get_page t addr Read in
  if (not force) && p.Mem.prot land Mem.prot_r = 0 then
    raise (Segv { addr; access = Read });
  p

(* A page about to be written: enforce protection (unless [force], the
   kernel/supervisor path) and break COW sharing. *)
let writable_page t addr ~force =
  let idx = Mem.page_index addr in
  let p = get_page t addr Write in
  if (not force) && p.Mem.prot land Mem.prot_w = 0 then
    raise (Segv { addr; access = Write });
  if p.Mem.refs > 1 && not p.Mem.shared then begin
    let q = Mem.unshare p in
    Hashtbl.replace t.pages idx q;
    q
  end
  else p

(* Optional write observer: the trace indexer installs one to learn which
   pages each replayed frame touches.  Unset (the normal case) it costs a
   single ref read per store. *)
let write_observer : (t -> addr:int -> len:int -> unit) option ref = ref None

let set_write_observer f = write_observer := Some f
let clear_write_observer () = write_observer := None

let observe_write t ~addr ~len =
  match !write_observer with
  | None -> ()
  | Some f -> f t ~addr ~len

let read_u8 ?(force = false) t addr =
  Mem.get_u8 (readable_page t addr ~force) (Mem.page_offset addr)

let write_u8 ?(force = false) t addr v =
  observe_write t ~addr ~len:1;
  Mem.set_u8 (writable_page t addr ~force) (Mem.page_offset addr) v

let read_u64 ?(force = false) t addr =
  let off = Mem.page_offset addr in
  if off <= Mem.page_size - 8 then
    let p = readable_page t addr ~force in
    Int64.to_int (Bytes.get_int64_le p.Mem.bytes off)
  else begin
    let v = ref 0L in
    for i = 7 downto 0 do
      v :=
        Int64.logor (Int64.shift_left !v 8)
          (Int64.of_int (read_u8 ~force t (addr + i)))
    done;
    Int64.to_int !v
  end

let write_u64 ?(force = false) t addr v =
  observe_write t ~addr ~len:8;
  let off = Mem.page_offset addr in
  if off <= Mem.page_size - 8 then
    let p = writable_page t addr ~force in
    Bytes.set_int64_le p.Mem.bytes off (Int64.of_int v)
  else
    for i = 0 to 7 do
      write_u8 ~force t (addr + i) ((v lsr (8 * i)) land 0xff)
    done

let read_bytes ?(force = false) t addr len =
  let out = Bytes.create len in
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = Mem.page_offset a in
    let chunk = min (len - !i) (Mem.page_size - off) in
    let p = readable_page t a ~force in
    Bytes.blit p.Mem.bytes off out !i chunk;
    i := !i + chunk
  done;
  out

let write_bytes ?(force = false) t addr b =
  let len = Bytes.length b in
  if len > 0 then observe_write t ~addr ~len;
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = Mem.page_offset a in
    let chunk = min (len - !i) (Mem.page_size - off) in
    let p = writable_page t a ~force in
    Bytes.blit b !i p.Mem.bytes off chunk;
    i := !i + chunk
  done

(* Text (code) accessors. *)

let text_slot addr = addr land (text_page_slots - 1)

(* The fetch: a hit on the cached page is a compare and an array read. *)
let text_get t addr =
  let tx = t.text in
  let key = addr asr text_page_bits in
  if key = tx.cached_key then tx.cached.(text_slot addr)
  else
    match Hashtbl.find tx.text_pages key with
    | page ->
      tx.cached_key <- key;
      tx.cached <- page;
      page.(text_slot addr)
    | exception Not_found -> None

(* The cached page is the table's own array, so writing the table's
   slot is writing the cache's. *)
let text_set t addr insn =
  let pages = t.text.text_pages and key = addr asr text_page_bits in
  let page =
    match Hashtbl.find pages key with
    | page -> page
    | exception Not_found ->
      let page = Array.make text_page_slots None in
      Hashtbl.replace pages key page;
      page
  in
  page.(text_slot addr) <- Some insn

(* Folds in ascending address order. *)
let text_fold f t init =
  Hashtbl.fold (fun key page acc -> (key, page) :: acc) t.text.text_pages []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.fold_left
       (fun acc (key, page) ->
         let base = key lsl text_page_bits in
         let acc = ref acc in
         Array.iteri
           (fun i slot ->
             match slot with Some insn -> acc := f (base + i) insn !acc | None -> ())
           page;
         !acc)
       init

let text_count t = text_fold (fun _ _ n -> n + 1) t 0

(* Global count of statically loaded instructions (execs), for the DBI
   cost model: each process retranslates its code. *)
let loaded_insns = ref 0

let text_load t ~base code =
  loaded_insns := !loaded_insns + Array.length code;
  Array.iteri (fun i insn -> text_set t (base + i) insn) code

let text_write t addr insn =
  text_set t addr insn;
  Hashtbl.replace t.written_text addr ()

let text_was_written t addr = Hashtbl.mem t.written_text addr

(* Software breakpoints (the replayer's run-to-event mechanism). *)

let bp_set t addr = Hashtbl.replace t.breakpoints addr ()
let bp_clear t addr = Hashtbl.remove t.breakpoints addr
let bp_is_set t addr = Hashtbl.mem t.breakpoints addr
let bp_any t = Hashtbl.length t.breakpoints > 0

(* Both forks copy the text pages whole (one array per 1024 slots; the
   instructions themselves are immutable and shared) and map each data
   frame through [frame].  Cheap by construction — this is what makes
   rr-style checkpoints take "less than ten milliseconds". *)
let fork_with frame t ~id =
  let text_pages = Hashtbl.create (Hashtbl.length t.text.text_pages) in
  Hashtbl.iter
    (fun key page -> Hashtbl.replace text_pages key (Array.copy page))
    t.text.text_pages;
  let child =
    { id;
      pages = Hashtbl.create (Hashtbl.length t.pages);
      text = text_of_pages text_pages;
      written_text = Hashtbl.copy t.written_text;
      breakpoints = Hashtbl.copy t.breakpoints;
      regions = t.regions;
      mmap_cursor = t.mmap_cursor }
  in
  Hashtbl.iter (fun idx p -> Hashtbl.replace child.pages idx (frame p)) t.pages;
  child

let cow_share p =
  Mem.incref p;
  p

(* Process fork: COW-share every private frame and alias every shared
   one. *)
let fork t ~id = fork_with cow_share t ~id

(* A checkpoint must not alias a MAP_SHARED frame: the session it was
   taken from keeps writing that frame in place, so the checkpoint would
   read the future.  Like rr's session clone, it copies each shared
   frame once per table, so the spaces of one checkpoint (parent and
   child after fork) still alias each other's copy. *)
type shared_copies = Mem.page Mem.Identity.t

let shared_copies () = Mem.Identity.create ()

let fork_checkpoint copies t ~id =
  fork_with
    (fun p ->
      if p.Mem.shared then begin
        let q =
          Mem.Identity.find_or_add copies p (fun () ->
              { p with Mem.bytes = Bytes.copy p.Mem.bytes; refs = 0 })
        in
        Mem.incref q;
        q
      end
      else cow_share p)
    t ~id

let release t = unmap_all t

(* Proportional set size in bytes: each frame contributes size/refs
   (paper §4.5). *)
let pss t =
  Hashtbl.fold
    (fun _ p acc -> acc +. (float_of_int Mem.page_size /. float_of_int p.Mem.refs))
    t.pages 0.

let mapped_bytes t =
  List.fold_left (fun acc r -> acc + r.len) 0 t.regions
