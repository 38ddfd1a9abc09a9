(* Persistent sidecar indexes: per-pc frames, per-page writer frames,
   the virtual-clock curve, and durable checkpoint blobs with the pool
   of byte windows they name.  See the mli for the query contract
   (write candidates are a verified superset).

   All frame arrays are ascending, so every query is a binary search;
   on disk they are delta-coded uvarints. *)

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* ----- the pool ----------------------------------------------------- *)

module Pool = struct
  (* Entry [id] is [entries.(id)], for [id < n].  [ids] maps a window's
     hash to the entries of that hash; it covers the first [hashed]
     entries, and [intern] hashes the rest, which a loader added, before
     it looks one up. *)
  type t = {
    mutable entries : Codec.slice array;
    mutable n : int;
    mutable hashed : int;
    ids : (int, int list) Hashtbl.t;
  }

  let create () = { entries = [||]; n = 0; hashed = 0; ids = Hashtbl.create 16 }

  let length t = t.n

  let bytes t =
    let total = ref 0 in
    for i = 0 to t.n - 1 do
      total := !total + t.entries.(i).Codec.len
    done;
    !total

  let get t id =
    if id < 0 || id >= t.n then
      raise (Codec.Corrupt (Printf.sprintf "pool entry %d of %d" id t.n));
    t.entries.(id)

  let add t w =
    if t.n = Array.length t.entries then begin
      let grown = Array.make (max 16 (2 * t.n)) w in
      Array.blit t.entries 0 grown 0 t.n;
      t.entries <- grown
    end;
    t.entries.(t.n) <- w;
    t.n <- t.n + 1

  (* FNV-style over the window's words, then its last bytes. *)
  let hash (w : Codec.slice) =
    let h = ref w.len and i = ref 0 in
    while !i + 8 <= w.len do
      h := (!h lxor Int64.to_int (get64u w.str (w.pos + !i))) * 0x100000001b3;
      i := !i + 8
    done;
    while !i < w.len do
      h := (!h lxor Char.code (String.unsafe_get w.str (w.pos + !i)))
           * 0x100000001b3;
      incr i
    done;
    (!h lxor (!h lsr 32)) land max_int

  let bucket t h =
    match Hashtbl.find t.ids h with ids -> ids | exception Not_found -> []

  let rec find t w = function
    | [] -> -1
    | id :: rest -> if Codec.slice_equal t.entries.(id) w then id else find t w rest

  (* A first sight copies the window: the caller may write its bytes
     after the checkpoint that names it. *)
  let intern t w =
    while t.hashed < t.n do
      let h = hash t.entries.(t.hashed) in
      Hashtbl.replace t.ids h (t.hashed :: bucket t h);
      t.hashed <- t.hashed + 1
    done;
    let h = hash w in
    let same = bucket t h in
    match find t w same with
    | -1 ->
      let id = t.n in
      Hashtbl.replace t.ids h (id :: same);
      add t (Codec.whole (String.sub w.str w.pos w.len));
      t.hashed <- t.n;
      id
    | id -> id
end

type tables = {
  pcs : (int, int array) Hashtbl.t; (* pc -> frames, ascending *)
  pages : (int, int array) Hashtbl.t; (* page index -> frames, ascending *)
  globals : int array; (* frames with unbounded effects, ascending *)
  clock : int array; (* clock.(p) = virtual clock at position p *)
}

type t = {
  n_events : int;
  tables : tables Lazy.t;
      (* a loaded index's decode at its first query ([get_meta]) *)
  mutable pool : Pool.t;
  mutable cps : (int * Codec.slice * int) array;
      (* (frame, blob, pool entries before its record), ascending *)
}

let n_events t = t.n_events

(* ----- binary searches --------------------------------------------- *)

(* Index of the greatest element < limit in ascending [a], or -1. *)
let rank_below a limit =
  let lo = ref 0 and hi = ref (Array.length a - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    if a.(mid) < limit then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  !best

let prev_exec t ~pc ~before =
  match Hashtbl.find_opt (Lazy.force t.tables).pcs pc with
  | None -> None
  | Some frames ->
    let i = rank_below frames before in
    if i < 0 then None else Some frames.(i)

let write_candidates t ~addr ~len ~before =
  if len <= 0 then []
  else begin
    let seen = Hashtbl.create 32 in
    let out = ref [] in
    let collect frames =
      let i = ref (rank_below frames before) in
      while !i >= 0 do
        let f = frames.(!i) in
        if not (Hashtbl.mem seen f) then begin
          Hashtbl.replace seen f ();
          out := f :: !out
        end;
        decr i
      done
    in
    let first = Mem.page_index addr and last = Mem.page_index (addr + len - 1) in
    let tables = Lazy.force t.tables in
    for p = first to last do
      match Hashtbl.find_opt tables.pages p with
      | Some frames -> collect frames
      | None -> ()
    done;
    collect tables.globals;
    List.sort (fun a b -> compare b a) !out
  end

let clock_at t p =
  let clock = (Lazy.force t.tables).clock in
  if p < 0 || p >= Array.length clock then
    invalid_arg "Trace_index.clock_at: position out of range";
  clock.(p)

let frame_of_time t time =
  let clock = (Lazy.force t.tables).clock in
  if Array.length clock = 0 || clock.(0) > time then None
  else begin
    (* largest p with clock.(p) <= time; clock is nondecreasing *)
    let lo = ref 0 and hi = ref (Array.length clock - 1) and best = ref 0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if clock.(mid) <= time then begin
        best := mid;
        lo := mid + 1
      end
      else hi := mid - 1
    done;
    Some !best
  end

let nearest_checkpoint t target =
  let lo = ref 0 and hi = ref (Array.length t.cps - 1) and best = ref (-1) in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let frame, _, _ = t.cps.(mid) in
    if frame <= target then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !best < 0 then None
  else
    let frame, blob, _ = t.cps.(!best) in
    Some (frame, blob)

let checkpoints t = Array.map (fun (frame, blob, _) -> (frame, blob)) t.cps
let pool t = t.pool

(* ----- building ---------------------------------------------------- *)

type builder = {
  b_pcs : (int, int list ref) Hashtbl.t; (* frames, newest first *)
  b_pages : (int, int list ref) Hashtbl.t;
  mutable b_globals : int list;
  mutable b_clock : int list; (* newest first *)
  mutable b_next : int; (* frame about to be noted *)
  b_pool : Pool.t;
  mutable b_cps : (int * Codec.slice * int) list;
}

let builder ~clock0 ~pool =
  { b_pcs = Hashtbl.create 64;
    b_pages = Hashtbl.create 256;
    b_globals = [];
    b_clock = [ clock0 ];
    b_next = 0;
    b_pool = pool;
    b_cps = [] }

let bucket tbl key =
  match Hashtbl.find_opt tbl key with
  | Some r -> r
  | None ->
    let r = ref [] in
    Hashtbl.replace tbl key r;
    r

(* Frames whose effects are not expressible as observed byte stores:
   exec replaces a whole space, clone makes one, rr_setup maps the
   preload pages, and performed syscalls (munmap, mprotect, sigreturn)
   rearrange mappings.  Always write-candidates. *)
let unbounded_effects (e : Event.t) =
  match e with
  | Event.E_exec _ | Event.E_clone _ | Event.E_rr_setup _ -> true
  | Event.E_syscall { kind = Event.K_perform; _ } -> true
  | _ -> false

let note_frame b e ~pages ~clock =
  let frame = b.b_next in
  b.b_next <- frame + 1;
  b.b_clock <- clock :: b.b_clock;
  (match Event.frame_pc e with
  | Some pc ->
    let r = bucket b.b_pcs pc in
    r := frame :: !r
  | None -> ());
  if unbounded_effects e then b.b_globals <- frame :: b.b_globals;
  let note_page p =
    let r = bucket b.b_pages p in
    match !r with f :: _ when f = frame -> () | _ -> r := frame :: !r
  in
  List.iter note_page pages;
  (* mmap replay may install content without going through the write
     paths (fresh zero pages, MAP_FIXED overwrites): index the target
     range explicitly. *)
  match e with
  | Event.E_mmap { addr; len; _ } when len > 0 ->
    for p = Mem.page_index addr to Mem.page_index (addr + len - 1) do
      note_page p
    done
  | _ -> ()

let note_checkpoint b ~frame ~blob =
  b.b_cps <- (frame, Codec.whole blob, Pool.length b.b_pool) :: b.b_cps

let rev_table tbl =
  let out = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter
    (fun k r -> Hashtbl.replace out k (Array.of_list (List.rev !r)))
    tbl;
  out

let by_frame (a, _, _) (b, _, _) = compare a b

let finish b =
  { n_events = b.b_next;
    tables =
      Lazy.from_val
        { pcs = rev_table b.b_pcs;
          pages = rev_table b.b_pages;
          globals = Array.of_list (List.rev b.b_globals);
          clock = Array.of_list (List.rev b.b_clock) };
    pool = b.b_pool;
    cps = Array.of_list (List.stable_sort by_frame (List.rev b.b_cps)) }

let set_checkpoints t ~pool cps =
  let cps = Array.of_list cps in
  Array.stable_sort by_frame cps;
  t.pool <- pool;
  t.cps <- cps

let records t ~pool ~checkpoint =
  let written = ref 0 in
  Array.iter
    (fun (frame, blob, upto) ->
      while !written < upto do
        pool !written (Pool.get t.pool !written);
        incr written
      done;
      checkpoint frame blob)
    t.cps

(* ----- codec -------------------------------------------------------- *)

(* Ascending frame arrays delta-code to tiny uvarints. *)
let put_ascending b a =
  Codec.put_uvarint b (Array.length a);
  let prev = ref 0 in
  Array.iter
    (fun v ->
      Codec.put_uvarint b (v - !prev);
      prev := v)
    a

let get_ascending s =
  let n = Codec.get_count s in
  let a = Array.make n 0 in
  let prev = ref 0 in
  for i = 0 to n - 1 do
    prev := !prev + Codec.get_uvarint s;
    a.(i) <- !prev
  done;
  a

let put_table b tbl =
  let entries =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
    |> List.sort (fun a b -> compare (fst a) (fst b))
  in
  Codec.put_uvarint b (List.length entries);
  List.iter
    (fun (k, frames) ->
      Codec.put_int b k;
      put_ascending b frames)
    entries

let get_table s =
  let n = Codec.get_count s in
  let tbl = Hashtbl.create (max 16 n) in
  for _ = 1 to n do
    let k = Codec.get_int s in
    Hashtbl.replace tbl k (get_ascending s)
  done;
  tbl

let index_version = 2

let put_meta b t =
  let tables = Lazy.force t.tables in
  Codec.put_uvarint b index_version;
  Codec.put_uvarint b t.n_events;
  put_ascending b tables.clock;
  put_ascending b tables.globals;
  put_table b tables.pcs;
  put_table b tables.pages

let get_tables s =
  let clock = get_ascending s in
  let globals = get_ascending s in
  let pcs = get_table s in
  let pages = get_table s in
  { pcs; pages; globals; clock }

(* What [get_tables] reads, read without keeping it. *)
let skip_ascending s =
  let n = Codec.get_count s in
  for _ = 1 to n do
    ignore (Codec.get_uvarint s : int)
  done;
  n

let skip_table s =
  for _ = 1 to Codec.get_count s do
    ignore (Codec.get_int s : int);
    ignore (skip_ascending s : int)
  done

(* A cold open keeps the tables' bytes where they lie and decodes them
   at the first query: it reads them through here, so a malformed table
   is damage at open, and allocates nothing for them. *)
let get_meta s =
  if Codec.get_uvarint s <> index_version then begin
    ignore (Codec.rest s : Codec.slice);
    None
  end
  else begin
    let n_events = Codec.get_uvarint s in
    let at = Codec.rest s in
    let s = Codec.source ~pos:at.pos ~len:at.len at.str in
    if skip_ascending s <> n_events + 1 then
      raise (Codec.Corrupt "index: clock curve length mismatch");
    ignore (skip_ascending s : int);
    skip_table s;
    skip_table s;
    if not (Codec.eof s) then raise (Codec.Corrupt "index: trailing bytes");
    Some
      { n_events;
        tables =
          lazy (get_tables (Codec.source ~pos:at.pos ~len:at.len at.str));
        pool = Pool.create ();
        cps = [||] }
  end

(* A 'K' record's payload is its frame followed by the blob, and a pool
   record's is its id followed by the window: the writer appends the
   blob or window without copying it, and the loader leaves it where it
   lies. *)
let put_head b n (tail : Codec.slice) =
  Codec.put_uvarint b n;
  Codec.put_uvarint b tail.len

type loading = {
  l_pool : Pool.t;
  mutable l_cps : (int * Codec.slice * int) array;
      (* the first [l_n]: checkpoint records, each with the pool records
         before it *)
  mutable l_n : int;
}

let loading () = { l_pool = Pool.create (); l_cps = [||]; l_n = 0 }

(* A record is read whole before it is kept: a damaged one keeps
   nothing. *)
let load_entry l s =
  let id = Codec.get_uvarint s in
  let w = Codec.get_slice s in
  if not (Codec.eof s) then raise (Codec.Corrupt "trailing record bytes");
  if id <> Pool.length l.l_pool then
    raise (Codec.Corrupt (Printf.sprintf "pool record %d out of order" id));
  Pool.add l.l_pool w

let load_checkpoint l s =
  let frame = Codec.get_uvarint s in
  let blob = Codec.get_slice s in
  if not (Codec.eof s) then raise (Codec.Corrupt "trailing record bytes");
  let cp = (frame, blob, Pool.length l.l_pool) in
  if l.l_n = Array.length l.l_cps then begin
    let grown = Array.make (max 16 (2 * l.l_n)) cp in
    Array.blit l.l_cps 0 grown 0 l.l_n;
    l.l_cps <- grown
  end;
  l.l_cps.(l.l_n) <- cp;
  l.l_n <- l.l_n + 1

(* Records are saved in frame order, so the loaded checkpoints usually
   need neither a sort nor a filter. *)
let attach t l ~upto =
  let cps = Array.sub l.l_cps 0 l.l_n in
  let frame i =
    let f, _, _ = cps.(i) in
    f
  in
  let rec kept_in_order i =
    i = l.l_n
    || frame i <= upto
       && (i = 0 || frame (i - 1) <= frame i)
       && kept_in_order (i + 1)
  in
  if kept_in_order 0 then begin
    t.pool <- l.l_pool;
    t.cps <- cps
  end
  else
    set_checkpoints t ~pool:l.l_pool
      (List.filter (fun (f, _, _) -> f <= upto) (Array.to_list cps))
