(* Guest address spaces.

   Data memory is byte-addressed and backed by COW page frames ({!Mem}).
   Code is word-addressed and lives in a separate text map (a Harvard
   simplification, see DESIGN.md §6): the program counter indexes [text],
   and patching a syscall site is a single-slot update, which is the moral
   equivalent of rr rewriting the two-byte x86 syscall instruction.

   The text map is paged: a table keyed by [addr asr 10] of pages, each
   holding two arrays over a window of its 1024 addresses, a predecoded
   [int] word per slot and the slot's instruction.  [text_set] encodes
   the word once ([text_word], below).  The interpreter ({!Cpu.run})
   dispatches on the word and reads the instruction only for the kinds
   a word cannot hold.  It holds the windows of the page it runs on and
   of the one it left last, and asks [text_page] for another only when
   the program counter leaves both, so a call into a JIT page and its
   return call nothing.

   A page stores only a window, the slots from its lowest to its highest
   written address: a write outside it widens it to at least twice its
   length, never past the page, and [text_load] sizes each page's window
   once, to the code it loads.  So a page costs by the slots it holds: an
   8-instruction program's text is two 8-slot arrays, and a page with a
   single entry two 1-slot ones.  Two entries at a page's two ends still
   cost a full window.

   A word is a 6-bit tag (bits 0-5), register [a] (bits 6-9: the one an
   instruction writes, or the one a [Jcc] compares) and, by tag:
   - register operand ([Mov], [Alu]): register [b] in bits 10-13;
   - immediate operand ([Mov], [Alu]): the value in bits 10-62, signed;
   - [Jmp]: the target in bits 10-62, signed;
   - [Jcc] with a register: [b] in bits 10-13, the target in 14-62,
     signed;
   - [Jcc] with an immediate: the target in bits 10-41, unsigned, the
     value in 42-62, signed;
   - [Load], [Store] ([a] loaded or stored): the base register [b] in
     bits 10-13, the offset in 14-62, signed; [Push] of an immediate,
     [Call]: the value or target in bits 10-62, signed.
   The tags: 0 an empty slot; 1 general; 2 [Nop] and [Pause]; 3 [Jmp];
   4 and 5 [Mov] with a register and an immediate; 6 + 2k and 7 + 2k
   [Alu] with ALU op k (in [Insn.alu]'s order, [Add] to [Shr]) and a
   register or an immediate; 26 + 2k and 27 + 2k [Jcc] with condition k
   ([Eq] to [Ge]); then the memory words, the three that read first:
   38 [Load], 39 [Pop], 40 [Ret], 41 [Store], 42 and 43 [Push] with a
   register and an immediate, 44 [Call], 45 [Callr].  General covers
   what the interpreter runs from the instruction array: byte loads and
   stores, [Cas], stops, [Emit], the nondeterministic instructions, and
   any other instruction with a register outside 0-15, a value or
   offset too wide for its field, or a [Div] or [Rem] by [Imm 0].  Only
   this file encodes words, and only {!Cpu.run} decodes them.

   Two rules keep what the interpreter holds exact:
   - writes ([text_set], [text_load], [text_write]) inside a window the
     space owns land in place, so an [Emit] there is seen by the very
     next fetch;
   - pages are copy-on-write: each carries the stamp of the one space
     that may write it in place, a fork gives both sides fresh stamps,
     and [text_set] copies a page that is not its space's before the
     first write, or a page whose window must widen (the interpreter
     fetches again after every [Emit] for this reason).
   DESIGN.md §6 gives the interpreter's speed on jit_compute and the
   command that measures it.

   The data page table is two arrays: the mapped page indexes in
   ascending order, and the frame at each.  The index array is never
   written in place, so a fork shares it and copies only the frame
   array; [writable_page] and [protect] replace a frame's slot, and
   [map] and [unmap] build new arrays.  A data access first tries the
   slot of the space's last hit, and binary-searches the index array
   only when that slot holds another page.  The hint needs no
   invalidation: it is checked against the index array on every use.
   Storm's spaces hit it about half the time (DESIGN.md §6 has the
   timings).  [writable_page] is the one gate for data writes: it
   breaks COW sharing and then gives a frame that still borrows its
   bytes (from {!Mem}'s zero buffer or a checkpoint blob) its own copy.
   Every byte of a frame is written through {!Mem}, which adds the
   frame's offset into its buffer.

   [hold_page] gives {!Cpu.run} the frame of the page an access lands
   on, to read in place and write through {!Mem} for the rest of one
   run: a read hold checks [prot_r], a write hold passes the write gate
   once and tells the write observer of the whole page once.  The
   writes the interpreter retires against the frame pass neither, so
   the observer is told at least once per page per run, before that
   page's first write, not once per write.

   [written_text] remembers addresses written at run time ([Emit]): the
   replayer must not set software breakpoints there and falls back to the
   SYSEMU-style path (paper §2.3.7).

   [generation] counts changes to what a space holds.  Every function
   that changes its pages, protections, data bytes, text, written text,
   breakpoints, regions or mmap cursor increments it, the write gate
   once per pass (once per write, or once per write hold), so the count
   does not lean on [refs] being right.
   A space whose generation has not moved since a checkpoint forked it
   still equals that fork, unless it maps a [MAP_SHARED] frame, which
   other spaces write in place: the replayer then reuses the fork
   instead of taking a new one.  tools/check_format.sh rejects a change
   to these fields anywhere else under lib/. *)

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

(* Slot [i] of both arrays is address [page_base + i]; the window is
   the [Array.length page_words] addresses from [page_base], all on one
   page.  An empty slot holds word 0 and [Halt]. *)
type text_page = {
  page_stamp : int; (* the one text map that may write the arrays in place *)
  page_base : int;
  page_words : int array;
  page_insns : Insn.t array;
}

type text = {
  text_pages : (int, text_page) Hashtbl.t; (* addr asr 10 -> page *)
  mutable stamp : int;
}

(* [frames.(i)] is mapped at page index [idxs.(i)], and [idxs]
   ascends.  [idxs] is never written in place: forks share it.  [hint]
   is the slot of the last lookup that hit, any slot number at all
   after the arrays change. *)
type page_table = {
  mutable idxs : int array;
  mutable frames : Mem.page array;
  mutable hint : int;
}

type t = {
  id : int;
  pages : page_table;
  mutable text : text;
  written_text : (int, unit) Hashtbl.t;
  breakpoints : (int, unit) Hashtbl.t;
  mutable regions : region list; (* sorted by start *)
  mutable mmap_cursor : int;
  mutable generation : int;
}

let text_page_bits = 10
let text_page_slots = 1 lsl text_page_bits

(* What [text_page] gives for an address no page holds: an empty
   window, which nothing writes. *)
let empty_text_page =
  { page_stamp = 0; page_base = 0; page_words = [||]; page_insns = [||] }

(* Stamps only need to differ between live text maps; the program runs
   in one domain. *)
let last_stamp = ref 0

let fresh_stamp () =
  incr last_stamp;
  !last_stamp

let text_of_pages text_pages = { text_pages; stamp = fresh_stamp () }

let mmap_base = 0x1000_0000
let stack_top = 0x7ff0_0000

let create ~id =
  { id;
    pages = { idxs = [||]; frames = [||]; hint = 0 };
    text = text_of_pages (Hashtbl.create 16);
    written_text = Hashtbl.create 16;
    breakpoints = Hashtbl.create 16;
    regions = [];
    mmap_cursor = mmap_base;
    generation = 0 }

let changed t = t.generation <- t.generation + 1

let pages_spanned addr len =
  if len <= 0 then 0
  else Mem.page_index (addr + len - 1) - Mem.page_index addr + 1

(* The first slot whose index is at least [idx].  The search takes no
   branch on the data: [(a - idx) asr 62] is -1 when [a < idx] and 0
   otherwise, for any [idx] above -2^61, page indexes being below 2^51.
   A branch on the comparison mispredicts about every other step: it
   made a random lookup among 177 pages take 90-130 ns, against 25-30 ns
   for this search and for a hash lookup. *)
let slot_at_or_above idxs idx =
  let n = Array.length idxs in
  if n = 0 then 0
  else begin
    let base = ref 0 and len = ref n in
    while !len > 1 do
      let half = !len lsr 1 in
      base := !base + (half land ((idxs.(!base + half) - idx) asr 62));
      len := !len - half
    done;
    !base + (((idxs.(!base) - idx) asr 62) land 1)
  end

(* The slot holding page [idx], or -1. *)
let slot pt idx =
  let idxs = pt.idxs and h = pt.hint in
  if h < Array.length idxs && idxs.(h) = idx then h
  else begin
    let i = slot_at_or_above idxs idx in
    if i < Array.length idxs && idxs.(i) = idx then begin
      pt.hint <- i;
      i
    end
    else -1
  end

(* The slots of pages [first] to [first + n - 1]: [lo] to [hi - 1]. *)
let slots_of pt first n =
  (slot_at_or_above pt.idxs first, slot_at_or_above pt.idxs (first + n))

(* [map] and [unmap] allocate only the new arrays, no temporaries:
   jit_compute maps and unmaps an arena about a hundred times a
   recording. *)

(* [a] with slots [lo] to [hi - 1] replaced by [m >= 1] slots, [f j] in
   slot [lo + j]. *)
let splice_in a lo hi m f =
  let n = Array.length a in
  let b = Array.make (n - (hi - lo) + m) (f 0) in
  Array.blit a 0 b 0 lo;
  for j = 1 to m - 1 do
    b.(lo + j) <- f j
  done;
  Array.blit a hi b (lo + m) (n - hi);
  b

(* [a] without slots [lo] to [hi - 1]. *)
let splice_out a lo hi =
  let b = Array.sub a 0 (Array.length a - (hi - lo)) in
  Array.blit a hi b lo (Array.length a - hi);
  b

let page_count t = Array.length t.pages.idxs

let find_page t idx =
  let i = if idx < 0 then -1 else slot t.pages idx in
  if i < 0 then None else Some t.pages.frames.(i)

let fold_pages f t init =
  let frames = t.pages.frames in
  let acc = ref init in
  Array.iteri (fun i idx -> acc := f idx frames.(i) !acc) t.pages.idxs;
  !acc

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
   mappings alias the same frames; a frame already at one of the pages
   (only a decoded space can map one outside its regions) is
   replaced. *)
let map t ~addr ~len ~prot ?(kind = Anon) ?(shared = false) () =
  let addr = addr land lnot (Mem.page_size - 1) in
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  if len = 0 then invalid_arg "Addr_space.map: empty";
  if overlaps t ~addr ~len then invalid_arg "Addr_space.map: overlap";
  changed t;
  insert_region t { start = addr; len; prot; kind; shared };
  let first = Mem.page_index addr and n = pages_spanned addr len in
  if n > 0 then begin
    let pt = t.pages in
    let lo, hi = slots_of pt first n in
    pt.idxs <- splice_in pt.idxs lo hi n (fun j -> first + j);
    pt.frames <-
      splice_in pt.frames lo hi n (fun _ -> Mem.fresh_page ~prot ~shared)
  end;
  addr

let find_map_addr t len =
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  let rec search addr =
    if overlaps t ~addr ~len then search (addr + Mem.page_size) else addr
  in
  let addr = search t.mmap_cursor in
  changed t;
  t.mmap_cursor <- addr + len;
  addr

let unmap t ~addr ~len =
  let addr = addr land lnot (Mem.page_size - 1) in
  let len = (len + Mem.page_size - 1) land lnot (Mem.page_size - 1) in
  let hi = addr + len in
  changed t;
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
  let pt = t.pages in
  let lo, hi = slots_of pt (Mem.page_index addr) (pages_spanned addr len) in
  if lo < hi then begin
    for i = lo to hi - 1 do
      Mem.decref pt.frames.(i)
    done;
    pt.idxs <- splice_out pt.idxs lo hi;
    pt.frames <- splice_out pt.frames lo hi
  end

let unmap_all t =
  changed t;
  Array.iter Mem.decref t.pages.frames;
  t.pages.idxs <- [||];
  t.pages.frames <- [||];
  t.regions <- [];
  Hashtbl.reset t.text.text_pages;
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
  changed t;
  t.regions <-
    List.map
      (fun r ->
        if addr < r.start + r.len && r.start < addr + len then { r with prot }
        else r)
      t.regions;
  let pt = t.pages in
  let lo, hi = slots_of pt (Mem.page_index addr) (pages_spanned addr len) in
  for i = lo to hi - 1 do
    let p = pt.frames.(i) in
    let p =
      if p.Mem.refs > 1 && not p.Mem.shared then begin
        let q = Mem.unshare p in
        pt.frames.(i) <- q;
        q
      end
      else p
    in
    p.Mem.prot <- prot
  done

let get_slot t addr access =
  let i = slot t.pages (Mem.page_index addr) in
  if i < 0 then raise (Segv { addr; access });
  i

let readable_page t addr ~force =
  let p = t.pages.frames.(get_slot t addr Read) in
  if (not force) && p.Mem.prot land Mem.prot_r = 0 then
    raise (Segv { addr; access = Read });
  p

(* A page about to be written: enforce protection (unless [force], the
   kernel/supervisor path), break COW sharing, and give a frame that
   still borrows its bytes its own copy. *)
let writable_page t addr ~force =
  let i = get_slot t addr Write in
  let p = t.pages.frames.(i) in
  if (not force) && p.Mem.prot land Mem.prot_w = 0 then
    raise (Segv { addr; access = Write });
  changed t;
  let p =
    if p.Mem.refs > 1 && not p.Mem.shared then begin
      let q = Mem.unshare p in
      t.pages.frames.(i) <- q;
      q
    end
    else p
  in
  Mem.own p;
  p

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

let hold_page t addr ~write =
  if write then begin
    observe_write t ~addr:(addr land lnot (Mem.page_size - 1))
      ~len:Mem.page_size;
    writable_page t addr ~force:false
  end
  else readable_page t addr ~force:false

let rec writable t addr len =
  len <= 0
  || (match find_page t (Mem.page_index addr) with
     | Some p -> p.Mem.prot land Mem.prot_w <> 0
     | None -> false)
     &&
     let next = (Mem.page_index addr + 1) * Mem.page_size in
     writable t next (len - (next - addr))

let read_u8 ?(force = false) t addr =
  Mem.get_u8 (readable_page t addr ~force) (Mem.page_offset addr)

let write_u8 ?(force = false) t addr v =
  observe_write t ~addr ~len:1;
  Mem.set_u8 (writable_page t addr ~force) (Mem.page_offset addr) v

let read_u64 ?(force = false) t addr =
  let off = Mem.page_offset addr in
  if off <= Mem.page_size - 8 then Mem.get_u64 (readable_page t addr ~force) off
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
  if off <= Mem.page_size - 8 then Mem.set_u64 (writable_page t addr ~force) off v
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
    Mem.blit_out (readable_page t a ~force) off out !i chunk;
    i := !i + chunk
  done;
  out

let write_sub ?(force = false) t addr s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Addr_space.write_sub";
  if len > 0 then observe_write t ~addr ~len;
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let off = Mem.page_offset a in
    let chunk = min (len - !i) (Mem.page_size - off) in
    Mem.blit_in s (pos + !i) (writable_page t a ~force) off chunk;
    i := !i + chunk
  done

let write_bytes ?force t addr b =
  write_sub ?force t addr (Bytes.unsafe_to_string b) 0 (Bytes.length b)

(* Text (code) accessors. *)

let text_tag_general = 1

let is_reg r = r >= 0 && r < Insn.num_regs

(* Whether [v] fits a signed field of [bits] bits. *)
let fits bits v =
  let top = v asr (bits - 1) in
  top = 0 || top = -1

(* The word of [insn], in the format the header gives.  [rest] is what
   follows register [a], from bit 10 on. *)
let text_word insn =
  let word tag a rest = tag lor (a lsl 6) lor (rest lsl 10) in
  match insn with
  | Insn.Nop | Insn.Pause -> 2
  | Insn.Jmp t when fits 53 t -> word 3 0 t
  | Insn.Mov (a, Insn.Reg b) when is_reg a && is_reg b -> word 4 a b
  | Insn.Mov (a, Insn.Imm v) when is_reg a && fits 53 v -> word 5 a v
  | Insn.Alu ((Insn.Div | Insn.Rem), _, Insn.Imm 0) -> text_tag_general
  | Insn.Alu (op, a, Insn.Reg b) when is_reg a && is_reg b ->
    word (6 + (2 * Insn.alu_index op)) a b
  | Insn.Alu (op, a, Insn.Imm v) when is_reg a && fits 53 v ->
    word (7 + (2 * Insn.alu_index op)) a v
  | Insn.Jcc (c, a, Insn.Reg b, t) when is_reg a && is_reg b && fits 49 t ->
    word (26 + (2 * Insn.cond_index c)) a (b lor (t lsl 4))
  | Insn.Jcc (c, a, Insn.Imm v, t)
    when is_reg a && fits 21 v && t >= 0 && t < 1 lsl 32 ->
    word (27 + (2 * Insn.cond_index c)) a (t lor (v lsl 32))
  | Insn.Load (a, b, off) when is_reg a && is_reg b && fits 49 off ->
    word 38 a (b lor (off lsl 4))
  | Insn.Pop a when is_reg a -> word 39 a 0
  | Insn.Ret -> 40
  | Insn.Store (a, b, off) when is_reg a && is_reg b && fits 49 off ->
    word 41 a (b lor (off lsl 4))
  | Insn.Push (Insn.Reg a) when is_reg a -> word 42 a 0
  | Insn.Push (Insn.Imm v) when fits 53 v -> word 43 0 v
  | Insn.Call t when fits 53 t -> word 44 0 t
  | Insn.Callr a when is_reg a -> word 45 a 0
  | _ -> text_tag_general

let text_tag insn = text_word insn land 63

(* Page [key] of [tx], or [empty_text_page]. *)
let find_text tx key =
  match Hashtbl.find tx.text_pages key with
  | page -> page
  | exception Not_found -> empty_text_page

let text_page t addr = find_text t.text (addr asr text_page_bits)

let text_get t addr =
  let p = text_page t addr in
  let i = addr - p.page_base in
  if i >= 0 && i < Array.length p.page_words && p.page_words.(i) <> 0 then
    Some p.page_insns.(i)
  else None

let install tx key p =
  Hashtbl.replace tx.text_pages key p;
  p

(* [p]'s slots, copied into a window of [n] slots from [base] that holds
   [p]'s, as a page [stamp] owns. *)
let rewindow p ~stamp ~base ~n =
  let words = Array.make n 0 and insns = Array.make n Insn.Halt in
  let len = Array.length p.page_words in
  if len > 0 then begin
    Array.blit p.page_words 0 words (p.page_base - base) len;
    Array.blit p.page_insns 0 insns (p.page_base - base) len
  end;
  { page_stamp = stamp; page_base = base; page_words = words;
    page_insns = insns }

(* A page of key [key] that [tx] may write in place and whose window
   holds [lo] to [last], addresses of that page.  That is the table's
   page when [tx] owns it and its window holds them; otherwise a copy
   replaces it, in a window widened to take them, to at least twice its
   length if [grow], never past the page. *)
let writable_window tx key ~lo ~last ~grow =
  let p = find_text tx key in
  let base = p.page_base and len = Array.length p.page_words in
  let holds = len > 0 && lo >= base && last - base < len in
  if holds && p.page_stamp = tx.stamp then p
  else if holds then install tx key (rewindow p ~stamp:tx.stamp ~base ~n:len)
  else begin
    let lo' = if len = 0 then lo else min lo base
    and last' = if len = 0 then last else max last (base + len - 1) in
    let need = last' - lo' + 1 in
    let n = if grow then min text_page_slots (max need (2 * len)) else need in
    let first = key lsl text_page_bits in
    (* Widen toward the side the new slots are on, as far as the page
       allows. *)
    let base =
      if len > 0 && lo < base then max first (last' - n + 1)
      else min lo' (first + text_page_slots - n)
    in
    install tx key (rewindow p ~stamp:tx.stamp ~base ~n)
  end

let text_set t addr insn =
  changed t;
  let p =
    writable_window t.text (addr asr text_page_bits) ~lo:addr ~last:addr
      ~grow:true
  in
  let i = addr - p.page_base in
  p.page_words.(i) <- text_word insn;
  p.page_insns.(i) <- insn

(* Both fold in ascending key, then address, order.  The walk sorts
   the keys in one array: the encoder walks every space of every
   checkpoint. *)
let text_fold_pages f t init =
  let pages = t.text.text_pages in
  let keys = Array.make (Hashtbl.length pages) 0 in
  ignore (Hashtbl.fold (fun key _ i -> keys.(i) <- key; i + 1) pages 0);
  Array.sort Int.compare keys;
  Array.fold_left (fun acc key -> f key (Hashtbl.find pages key) acc) init keys

let text_page_fold f p init =
  let acc = ref init in
  Array.iteri
    (fun i w -> if w <> 0 then acc := f (p.page_base + i) p.page_insns.(i) !acc)
    p.page_words;
  !acc

let text_fold f t init =
  text_fold_pages (fun _ p acc -> text_page_fold f p acc) t init

let text_count t = text_fold (fun _ _ n -> n + 1) t 0

(* Global count of statically loaded instructions (execs), for the DBI
   cost model: each process retranslates its code. *)
let loaded_insns = ref 0

let text_load t ~base code =
  let n = Array.length code in
  loaded_insns := !loaded_insns + n;
  (* Size each page's window once, to the code it takes. *)
  let lo = ref base in
  while !lo < base + n do
    let key = !lo asr text_page_bits in
    let last =
      min (base + n - 1) ((key lsl text_page_bits) + text_page_slots - 1)
    in
    ignore (writable_window t.text key ~lo:!lo ~last ~grow:false);
    lo := last + 1
  done;
  Array.iteri (fun i insn -> text_set t (base + i) insn) code

let text_reserve t ~lo ~last =
  if lo > last || lo asr text_page_bits <> last asr text_page_bits then
    invalid_arg "Addr_space.text_reserve";
  changed t;
  ignore (writable_window t.text (lo asr text_page_bits) ~lo ~last ~grow:false)

let text_write t addr insn =
  text_set t addr insn;
  Hashtbl.replace t.written_text addr ()

let text_was_written t addr = Hashtbl.mem t.written_text addr

(* Software breakpoints (the replayer's run-to-event mechanism). *)

let bp_set t addr =
  changed t;
  Hashtbl.replace t.breakpoints addr ()

let bp_clear t addr =
  changed t;
  Hashtbl.remove t.breakpoints addr

let bp_is_set t addr = Hashtbl.mem t.breakpoints addr
let bp_any t = Hashtbl.length t.breakpoints > 0

(* A new text map over [tx]'s pages.  Both maps take fresh stamps, so
   neither owns a page any more: whichever side writes a page first
   copies it, and the other keeps the original. *)
let share_text tx =
  tx.stamp <- fresh_stamp ();
  text_of_pages (Hashtbl.copy tx.text_pages)

let text_share t ~from =
  changed t;
  t.text <- share_text from.text

(* Both forks share the text pages copy-on-write and the page index
   array, and map each data frame through [frame] into a new frame
   array: one allocation of a word a page.  A fork copies no page bytes
   and no text slots — what makes rr-style checkpoints take "less than
   ten milliseconds". *)
let fork_with frame t ~id =
  { id;
    pages =
      { idxs = t.pages.idxs;
        frames = Array.map frame t.pages.frames;
        hint = t.pages.hint };
    text = share_text t.text;
    written_text = Hashtbl.copy t.written_text;
    breakpoints = Hashtbl.copy t.breakpoints;
    regions = t.regions;
    mmap_cursor = t.mmap_cursor;
    generation = 0 }

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
        let q = Mem.Identity.find_or_add copies p (fun () -> Mem.copy p) in
        Mem.incref q;
        q
      end
      else cow_share p)
    t ~id

(* A snapshot decoder's way in, after [create] and the text: the space
   takes the decoder's arrays, and each frame counts one more mapper,
   so a frame the blob maps twice copies on its first write. *)
let fill t ~mmap_cursor ~regions ~idxs ~frames ~written_text ~breakpoints =
  if Array.length idxs <> Array.length frames then
    invalid_arg "Addr_space.fill: one frame per index";
  changed t;
  t.mmap_cursor <- mmap_cursor;
  t.regions <- regions;
  Array.iter Mem.incref frames;
  t.pages.idxs <- idxs;
  t.pages.frames <- frames;
  List.iter (fun addr -> Hashtbl.replace t.written_text addr ()) written_text;
  List.iter (fun addr -> Hashtbl.replace t.breakpoints addr ()) breakpoints

let release t = unmap_all t

(* Proportional set size in bytes: each frame contributes size/refs
   (paper §4.5). *)
let pss t =
  Array.fold_left
    (fun acc p -> acc +. (float_of_int Mem.page_size /. float_of_int p.Mem.refs))
    0. t.pages.frames
