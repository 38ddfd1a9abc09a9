(* Persistent sidecar indexes: per-pc frames, per-page writer frames,
   the virtual-clock curve, and durable checkpoint blobs.  See the mli
   for the query contract (write candidates are a verified superset).

   All frame arrays are ascending, so every query is a binary search;
   on disk they are delta-coded uvarints. *)

type t = {
  n_events : int;
  pcs : (int, int array) Hashtbl.t; (* pc -> frames, ascending *)
  pages : (int, int array) Hashtbl.t; (* page index -> frames, ascending *)
  globals : int array; (* frames with unbounded effects, ascending *)
  clock : int array; (* clock.(p) = virtual clock at position p *)
  mutable cps : (int * Codec.slice) array; (* (frame, blob), ascending *)
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
  match Hashtbl.find_opt t.pcs pc with
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
    for p = first to last do
      match Hashtbl.find_opt t.pages p with
      | Some frames -> collect frames
      | None -> ()
    done;
    collect t.globals;
    List.sort (fun a b -> compare b a) !out
  end

let clock_at t p =
  if p < 0 || p >= Array.length t.clock then
    invalid_arg "Trace_index.clock_at: position out of range";
  t.clock.(p)

let frame_of_time t time =
  if Array.length t.clock = 0 || t.clock.(0) > time then None
  else begin
    (* largest p with clock.(p) <= time; clock is nondecreasing *)
    let lo = ref 0 and hi = ref (Array.length t.clock - 1) and best = ref 0 in
    while !lo <= !hi do
      let mid = (!lo + !hi) / 2 in
      if t.clock.(mid) <= time then begin
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
    if fst t.cps.(mid) <= target then begin
      best := mid;
      lo := mid + 1
    end
    else hi := mid - 1
  done;
  if !best < 0 then None else Some t.cps.(!best)

let checkpoints t = t.cps

(* ----- building ---------------------------------------------------- *)

type builder = {
  b_pcs : (int, int list ref) Hashtbl.t; (* frames, newest first *)
  b_pages : (int, int list ref) Hashtbl.t;
  mutable b_globals : int list;
  mutable b_clock : int list; (* newest first *)
  mutable b_next : int; (* frame about to be noted *)
  mutable b_cps : (int * Codec.slice) list;
}

let builder ~clock0 =
  { b_pcs = Hashtbl.create 64;
    b_pages = Hashtbl.create 256;
    b_globals = [];
    b_clock = [ clock0 ];
    b_next = 0;
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
  b.b_cps <- (frame, Codec.whole blob) :: b.b_cps

let rev_table tbl =
  let out = Hashtbl.create (Hashtbl.length tbl) in
  Hashtbl.iter
    (fun k r -> Hashtbl.replace out k (Array.of_list (List.rev !r)))
    tbl;
  out

let finish b =
  { n_events = b.b_next;
    pcs = rev_table b.b_pcs;
    pages = rev_table b.b_pages;
    globals = Array.of_list (List.rev b.b_globals);
    clock = Array.of_list (List.rev b.b_clock);
    cps =
      Array.of_list
        (List.sort (fun a b -> compare (fst a) (fst b)) (List.rev b.b_cps)) }

let set_checkpoints t cps =
  t.cps <- Array.of_list (List.sort (fun (a, _) (b, _) -> compare a b) cps)

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
  let n = Codec.get_uvarint s in
  if n < 0 || n > Sys.max_array_length then
    raise (Codec.Corrupt "index: bad array length");
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
  let n = Codec.get_uvarint s in
  let tbl = Hashtbl.create (max 16 n) in
  for _ = 1 to n do
    let k = Codec.get_int s in
    Hashtbl.replace tbl k (get_ascending s)
  done;
  tbl

let index_version = 1

let put_meta b t =
  Codec.put_uvarint b index_version;
  Codec.put_uvarint b t.n_events;
  put_ascending b t.clock;
  put_ascending b t.globals;
  put_table b t.pcs;
  put_table b t.pages

let get_meta s =
  let v = Codec.get_uvarint s in
  if v <> index_version then
    raise (Codec.Corrupt (Printf.sprintf "index version %d" v));
  let n_events = Codec.get_uvarint s in
  let clock = get_ascending s in
  let globals = get_ascending s in
  let pcs = get_table s in
  let pages = get_table s in
  if Array.length clock <> n_events + 1 then
    raise (Codec.Corrupt "index: clock curve length mismatch");
  { n_events; pcs; pages; globals; clock; cps = [||] }

(* A 'K' record's payload is these fields followed by the blob itself,
   which the writer appends without copying it, and [get_checkpoint]
   leaves where it lies. *)
let put_checkpoint_head b ~frame ~(blob : Codec.slice) =
  Codec.put_uvarint b frame;
  Codec.put_uvarint b blob.len

let get_checkpoint s =
  let frame = Codec.get_uvarint s in
  (frame, Codec.get_slice s)
