(* Tests for the ISA substrate: assembler, memory, CPU semantics, PMU
   determinism. *)

open Isa_test_util

let test_assemble_labels () =
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.label "start";
        Asm.movi 1 5;
        Asm.label "loop";
        Asm.subi 1 1;
        Asm.jnz 1 "loop";
        Asm.ret ]
  in
  Alcotest.(check int) "start" 0x1000 (Asm.symbol prog "start");
  Alcotest.(check int) "loop" 0x1001 (Asm.symbol prog "loop");
  Alcotest.(check int) "length" 4 (Asm.length prog)

let test_assemble_duplicate () =
  Alcotest.check_raises "duplicate" (Asm.Duplicate_label "x") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.label "x"; Asm.label "x" ]))

let test_assemble_undefined () =
  Alcotest.check_raises "undefined" (Asm.Undefined_label "nowhere") (fun () ->
      ignore (Asm.assemble ~base:0 [ Asm.jmp "nowhere" ]))

let test_mem_rw () =
  let space = Addr_space.create ~id:1 in
  ignore (Addr_space.map space ~addr:0x4000 ~len:8192 ~prot:Mem.prot_rw ());
  Addr_space.write_u64 space 0x4000 42;
  Alcotest.(check int) "u64" 42 (Addr_space.read_u64 space 0x4000);
  Addr_space.write_u64 space 0x4ffc (-123456789);
  Alcotest.(check int) "cross-page u64" (-123456789)
    (Addr_space.read_u64 space 0x4ffc);
  Addr_space.write_u8 space 0x4100 0x7f;
  Alcotest.(check int) "u8" 0x7f (Addr_space.read_u8 space 0x4100)

let test_mem_unmapped () =
  let space = Addr_space.create ~id:1 in
  match Addr_space.read_u64 space 0x9999_0000 with
  | _ -> Alcotest.fail "expected Segv"
  | exception Addr_space.Segv { addr; _ } ->
    Alcotest.(check int) "fault addr" 0x9999_0000 addr

let test_mem_prot () =
  let space = Addr_space.create ~id:1 in
  ignore (Addr_space.map space ~addr:0x4000 ~len:4096 ~prot:Mem.prot_r ());
  Alcotest.(check int) "readable" 0 (Addr_space.read_u64 space 0x4000);
  (match Addr_space.write_u64 space 0x4000 1 with
  | () -> Alcotest.fail "expected Segv on write"
  | exception Addr_space.Segv _ -> ());
  (* force bypasses protection (kernel access) *)
  Addr_space.write_u64 ~force:true space 0x4000 7;
  Alcotest.(check int) "forced write" 7 (Addr_space.read_u64 space 0x4000)

let test_mem_cow_fork () =
  let parent = Addr_space.create ~id:1 in
  ignore (Addr_space.map parent ~addr:0x4000 ~len:4096 ~prot:Mem.prot_rw ());
  Addr_space.write_u64 parent 0x4000 111;
  let child = Addr_space.fork parent ~id:2 in
  Alcotest.(check int) "child sees parent data" 111
    (Addr_space.read_u64 child 0x4000);
  Addr_space.write_u64 child 0x4000 222;
  Alcotest.(check int) "parent unchanged after child write" 111
    (Addr_space.read_u64 parent 0x4000);
  Addr_space.write_u64 parent 0x4008 333;
  Alcotest.(check int) "child unchanged after parent write" 0
    (Addr_space.read_u64 child 0x4008)

(* Forks and checkpoints share region records with their source; an
   mprotect on one side must not rewrite the other side's region prot. *)
let test_region_prot_unshared () =
  let region_prot space =
    match Addr_space.find_region space 0x4000 with
    | Some r -> r.Addr_space.prot
    | None -> Alcotest.fail "region 0x4000 missing"
  in
  let parent = Addr_space.create ~id:1 in
  ignore (Addr_space.map parent ~addr:0x4000 ~len:4096 ~prot:Mem.prot_rw ());
  let child = Addr_space.fork parent ~id:2 in
  Addr_space.protect child ~addr:0x4000 ~len:4096 ~prot:Mem.prot_r;
  Alcotest.(check int) "child region reprotected" Mem.prot_r
    (region_prot child);
  Alcotest.(check int) "parent region prot unchanged after child mprotect"
    Mem.prot_rw (region_prot parent);
  let live = Addr_space.create ~id:3 in
  ignore (Addr_space.map live ~addr:0x4000 ~len:4096 ~prot:Mem.prot_rw ());
  let cp = Addr_space.fork_checkpoint (Addr_space.shared_copies ()) live ~id:4 in
  Addr_space.protect live ~addr:0x4000 ~len:4096 ~prot:Mem.prot_r;
  Alcotest.(check int) "checkpoint region prot unchanged after live mprotect"
    Mem.prot_rw (region_prot cp)

let test_pss_sharing () =
  let parent = Addr_space.create ~id:1 in
  ignore (Addr_space.map parent ~addr:0x4000 ~len:8192 ~prot:Mem.prot_rw ());
  let solo = Addr_space.pss parent in
  Alcotest.(check (float 0.01)) "two pages" 8192.0 solo;
  let child = Addr_space.fork parent ~id:2 in
  Alcotest.(check (float 0.01)) "parent PSS halves" 4096.0
    (Addr_space.pss parent);
  Alcotest.(check (float 0.01)) "child PSS halves" 4096.0
    (Addr_space.pss child);
  (* Writing unshares one page: 4096 (private) + 2048 (shared). *)
  Addr_space.write_u64 child 0x4000 1;
  Alcotest.(check (float 0.01)) "child PSS after COW" 6144.0
    (Addr_space.pss child)

(* ---- copy-on-write isolation against a model ------------------------ *)

(* Random steps over a few spaces, run on real spaces and on a model in
   which every space owns plain copies of its private frames and its
   text, and spaces alias a shared frame.  The real spaces share frames,
   text pages and the zero buffer until a write, so after every step
   each must read exactly like its model: mappings, prot, bytes and
   text.  [fold_pages] must yield the mapped pages in strictly
   ascending order, and [find_page] must miss below, between and above
   the mapped runs.  A fresh frame must read all zero, and a fetch must
   see the latest text write.  Breakpoints, mmap-cursor moves, emptying a space
   and sharing another's text ride along with checkpoint forks, and a
   space whose generation has not moved since its last checkpoint fork
   must still equal that fork (unless it maps a shared frame). *)

module A = Addr_space

let cow_base = 0x40_0000
let cow_max_spaces = 6
(* Both ends of one page, and addresses a window must widen to take,
   by more than doubling, by doubling and downward. *)
let cow_text_addrs =
  [| 0x400; 0x401; 0x7ff; 0x800; 0x803; 0x806; 0x80f; 0xc00; 0xc08; 0xc10 |]

type mframe = {
  mutable data : Bytes.t;
  mutable mprot : Mem.prot;
  mshared : bool;
}

type mspace = {
  frames : (int, mframe) Hashtbl.t; (* page index -> frame *)
  mtext : (int, Insn.t) Hashtbl.t;
}

(* Spaces and text addresses are picked modulo what exists; pages are
   counted from [cow_base]; a data word [w] is at [cow_base + 8 w], so
   no access crosses a page. *)
type cow_op =
  | Map of { sp : int; page : int; n : int; shared : bool; rw : bool }
  | Unmap of { sp : int; page : int; n : int }
  | Protect of { sp : int; page : int; n : int; rw : bool }
  | Write of { sp : int; w : int; v : int; byte : bool; force : bool }
  | Read of { sp : int; w : int }
  | Text of { sp : int; a : int; v : int }
  | Fetch of { sp : int; a : int }
  | Fork of int
  | Checkpoint of int list (* forked with one shared-copies table *)
  | Release of int
  | Bp of { sp : int; a : int; set : bool }
  | Find_map of { sp : int; n : int } (* moves the mmap cursor only *)
  | Exec of int (* unmap_all: the space stays, emptied *)
  | Share_text of { sp : int; from : int }

let show_cow_op = function
  | Map { sp; page; n; shared; rw } ->
    Printf.sprintf "map s%d p%d n%d shared=%b rw=%b" sp page n shared rw
  | Unmap { sp; page; n } -> Printf.sprintf "unmap s%d p%d n%d" sp page n
  | Protect { sp; page; n; rw } ->
    Printf.sprintf "protect s%d p%d n%d rw=%b" sp page n rw
  | Write { sp; w; v; byte; force } ->
    Printf.sprintf "write s%d w%#x %d byte=%b force=%b" sp w v byte force
  | Read { sp; w } -> Printf.sprintf "read s%d w%#x" sp w
  | Text { sp; a; v } -> Printf.sprintf "text s%d a%d %d" sp a v
  | Fetch { sp; a } -> Printf.sprintf "fetch s%d a%d" sp a
  | Fork sp -> Printf.sprintf "fork s%d" sp
  | Checkpoint sps ->
    "checkpoint " ^ String.concat "," (List.map string_of_int sps)
  | Release sp -> Printf.sprintf "release s%d" sp
  | Bp { sp; a; set } ->
    Printf.sprintf "bp_%s s%d a%d" (if set then "set" else "clear") sp a
  | Find_map { sp; n } -> Printf.sprintf "find_map_addr s%d n%d" sp n
  | Exec sp -> Printf.sprintf "unmap_all s%d" sp
  | Share_text { sp; from } -> Printf.sprintf "text_share s%d from s%d" sp from

let gen_cow_op =
  QCheck.Gen.(
    let sp = int_bound 7 and page = int_bound 7 and n = int_range 1 3 in
    let w =
      map2 (fun p o -> (p * 512) + o) (int_bound 8) (oneofl [ 0; 1; 2; 511 ])
    in
    let a = int_bound (Array.length cow_text_addrs - 1) in
    let mostly b = frequency [ (3, return b); (1, return (not b)) ] in
    frequency
      [ ( 3,
          let* sp = sp and* page = page and* n = n and* shared = bool
          and* rw = mostly true in
          return (Map { sp; page; n; shared; rw }) );
        ( 1,
          let* sp = sp and* page = page and* n = n in
          return (Unmap { sp; page; n }) );
        ( 2,
          let* sp = sp and* page = page and* n = n and* rw = bool in
          return (Protect { sp; page; n; rw }) );
        ( 6,
          let* sp = sp and* w = w and* v = int_range 1 1000 and* byte = bool
          and* force = mostly false in
          return (Write { sp; w; v; byte; force }) );
        (2, map2 (fun sp w -> Read { sp; w }) sp w);
        ( 3,
          let* sp = sp and* a = a and* v = int_range 1 1000 in
          return (Text { sp; a; v }) );
        (2, map2 (fun sp a -> Fetch { sp; a }) sp a);
        (2, map (fun sp -> Fork sp) sp);
        (2, map (fun sps -> Checkpoint sps) (list_size (int_range 1 2) sp));
        (1, map (fun sp -> Release sp) sp);
        ( 2,
          (* Two addresses, so a clear often meets a set breakpoint. *)
          let* sp = sp and* a = int_bound 1 and* set = bool in
          return (Bp { sp; a; set }) );
        (1, map2 (fun sp n -> Find_map { sp; n }) sp n);
        (1, map (fun sp -> Exec sp) sp);
        (1, map2 (fun sp from -> Share_text { sp; from }) sp sp) ])

let model_fork ~shared_frame m =
  let frames = Hashtbl.create 16 in
  Hashtbl.iter
    (fun i f ->
      Hashtbl.replace frames i
        (if f.mshared then shared_frame f
         else { f with data = Bytes.copy f.data }))
    m.frames;
  { frames; mtext = Hashtbl.copy m.mtext }

let sorted_bindings tbl =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let page_idxs a = List.rev (A.fold_pages (fun i _ acc -> i :: acc) a [])
let frame a i = Option.get (A.find_page a i)

let rec ascending = function
  | i :: (j :: _ as rest) -> i < j && ascending rest
  | _ -> true

(* Every page an op can map, one on either side, and two far off: a
   lookup below, between or above the mapped runs must miss. *)
let cow_probe_idxs =
  (0 :: List.init 14 (fun i -> Mem.page_index cow_base - 2 + i)) @ [ 1 lsl 40 ]

let check_cow_state spaces =
  let fresh = A.create ~id:0 in
  ignore (A.map fresh ~addr:cow_base ~len:Mem.page_size ~prot:Mem.prot_rw ());
  if A.read_bytes fresh cow_base Mem.page_size
     <> Bytes.make Mem.page_size '\000'
  then failwith "a fresh frame is not all zero";
  List.iteri
    (fun n (a, m) ->
      let differ what = failwith (Printf.sprintf "space %d: %s" n what) in
      let idxs = page_idxs a in
      if not (ascending idxs) then differ "fold_pages does not ascend";
      if idxs <> List.map fst (sorted_bindings m.frames) then
        differ "mapped pages differ";
      if A.page_count a <> List.length idxs then differ "page_count differs";
      List.iter
        (fun i ->
          if Option.is_some (A.find_page a i) <> Hashtbl.mem m.frames i then
            differ (Printf.sprintf "find_page of page %#x" i))
        cow_probe_idxs;
      Hashtbl.iter
        (fun i f ->
          let addr = i * Mem.page_size in
          if (frame a i).Mem.prot <> f.mprot then
            differ (Printf.sprintf "prot of %#x differs" addr);
          if A.read_bytes ~force:true a addr Mem.page_size <> f.data then
            differ (Printf.sprintf "bytes of %#x differ" addr))
        m.frames;
      if List.rev (A.text_fold (fun addr i acc -> (addr, i) :: acc) a [])
         <> sorted_bindings m.mtext
      then differ "text differs")
    spaces

(* Shared frames alias exactly where the model's do. *)
let check_cow_aliasing spaces =
  let shared =
    List.concat_map
      (fun (a, m) ->
        Hashtbl.fold
          (fun i f acc ->
            if f.mshared then (frame a i, f) :: acc else acc)
          m.frames [])
      spaces
  in
  List.iter
    (fun (p, f) ->
      List.iter
        (fun (q, g) ->
          if p == q <> (f == g) then failwith "shared frames alias differently")
        shared)
    shared

(* A space that maps no MAP_SHARED region and whose generation has not
   moved since its last checkpoint fork still equals that fork — what
   lets the replayer's snapshot reuse the fork. *)
let check_unmoved_generations last_forks =
  List.iter
    (fun (a, gen, f) ->
      if a.A.generation = gen
         && not (List.exists (fun r -> r.A.shared) (A.regions a))
      then begin
        let same what x y =
          if x <> y then
            failwith
              ("generation unmoved since the last checkpoint fork, but "
             ^ what ^ " differ")
        in
        let keys tbl = List.map fst (sorted_bindings tbl) in
        let bytes s i =
          A.read_bytes ~force:true s (i * Mem.page_size) Mem.page_size
        in
        let text s = A.text_fold (fun addr i acc -> (addr, i) :: acc) s [] in
        same "mapped pages" (page_idxs a) (page_idxs f);
        List.iter
          (fun i ->
            same "prots" (frame a i).Mem.prot (frame f i).Mem.prot;
            same "bytes" (bytes a i) (bytes f i))
          (page_idxs a);
        same "text" (text a) (text f);
        same "written text" (keys a.A.written_text) (keys f.A.written_text);
        same "breakpoints" (keys a.A.breakpoints) (keys f.A.breakpoints);
        same "regions" (A.regions a) (A.regions f);
        same "mmap cursors" a.A.mmap_cursor f.A.mmap_cursor
      end)
    last_forks

let run_cow_ops ops =
  let empty () = { frames = Hashtbl.create 16; mtext = Hashtbl.create 16 } in
  let spaces = ref [ (A.create ~id:1, empty ()) ] in
  (* Each checkpointed space's last fork, out of the ops' reach, with
     the space's generation when it was taken. *)
  let last_forks = ref [] in
  let last_id = ref 1 in
  let pick sp = List.nth !spaces (sp mod List.length !spaces) in
  let add (a, m) =
    if List.length !spaces < cow_max_spaces then spaces := !spaces @ [ (a, m) ]
  in
  let fresh_id () =
    incr last_id;
    !last_id
  in
  let addr_of page = cow_base + (page * Mem.page_size) in
  let each_page page n f =
    for i = page to page + n - 1 do
      f (Mem.page_index (addr_of i))
    done
  in
  let prot_of rw = if rw then Mem.prot_rw else Mem.prot_r in
  let expect_segv what real ~model =
    match real () with
    | () -> if model then failwith (what ^ ": only the model faults")
    | exception A.Segv _ ->
      if not model then failwith (what ^ ": only the real space faults")
  in
  let step = function
    | Map { sp; page; n; shared; rw } ->
      let a, m = pick sp in
      let addr = addr_of page and len = n * Mem.page_size in
      if not (A.overlaps a ~addr ~len) then begin
        let prot = prot_of rw in
        ignore (A.map a ~addr ~len ~prot ~shared ());
        each_page page n (fun i ->
            Hashtbl.replace m.frames i
              { data = Bytes.make Mem.page_size '\000'; mprot = prot;
                mshared = shared })
      end
    | Unmap { sp; page; n } ->
      let a, m = pick sp in
      A.unmap a ~addr:(addr_of page) ~len:(n * Mem.page_size);
      each_page page n (Hashtbl.remove m.frames)
    | Protect { sp; page; n; rw } ->
      let a, m = pick sp in
      let prot = prot_of rw in
      A.protect a ~addr:(addr_of page) ~len:(n * Mem.page_size) ~prot;
      each_page page n (fun i ->
          Option.iter (fun f -> f.mprot <- prot) (Hashtbl.find_opt m.frames i))
    | Write { sp; w; v; byte; force } ->
      let a, m = pick sp in
      let addr = cow_base + (w * 8) in
      let off = Mem.page_offset addr in
      let frame = Hashtbl.find_opt m.frames (Mem.page_index addr) in
      let faults =
        match frame with
        | None -> true
        | Some f -> (not force) && f.mprot land Mem.prot_w = 0
      in
      expect_segv "write" ~model:faults (fun () ->
          if byte then A.write_u8 ~force a addr v
          else A.write_u64 ~force a addr v);
      if not faults then
        Option.iter
          (fun f ->
            if byte then Bytes.set f.data off (Char.chr (v land 0xff))
            else Bytes.set_int64_le f.data off (Int64.of_int v))
          frame
    | Read { sp; w } -> (
      let a, m = pick sp in
      let addr = cow_base + (w * 8) in
      match Hashtbl.find_opt m.frames (Mem.page_index addr) with
      | None ->
        expect_segv "read" ~model:true (fun () -> ignore (A.read_u64 a addr))
      | Some f ->
        let want = Bytes.get_int64_le f.data (Mem.page_offset addr) in
        if A.read_u64 a addr <> Int64.to_int want then failwith "read differs")
    | Text { sp; a = i; v } ->
      let a, m = pick sp in
      let addr = cow_text_addrs.(i) and insn = Insn.Mov (1, Insn.Imm v) in
      if v land 1 = 0 then A.text_set a addr insn
      else A.text_write a addr insn;
      Hashtbl.replace m.mtext addr insn;
      if A.text_get a addr <> Some insn then
        failwith "a fetch misses the latest text write"
    | Fetch { sp; a = i } ->
      let a, m = pick sp in
      let addr = cow_text_addrs.(i) in
      if A.text_get a addr <> Hashtbl.find_opt m.mtext addr then
        failwith "fetch differs"
    | Fork sp ->
      let a, m = pick sp in
      add (A.fork a ~id:(fresh_id ()), model_fork ~shared_frame:Fun.id m)
    | Checkpoint sps ->
      (* One table: the checkpoint copies each shared frame once. *)
      let copies = A.shared_copies () and memo = ref [] in
      let shared_frame f =
        match List.assq_opt f !memo with
        | Some g -> g
        | None ->
          let g = { f with data = Bytes.copy f.data } in
          memo := (f, g) :: !memo;
          g
      in
      List.iter
        (fun sp ->
          let a, m = pick sp in
          add
            ( A.fork_checkpoint copies a ~id:(fresh_id ()),
              model_fork ~shared_frame m );
          let kept = A.fork_checkpoint (A.shared_copies ()) a ~id:0 in
          last_forks :=
            (a, a.A.generation, kept)
            :: List.filter (fun (b, _, _) -> b != a) !last_forks)
        sps
    | Release sp ->
      if List.length !spaces > 1 then begin
        let a, _ = pick sp in
        A.release a;
        spaces := List.filter (fun (b, _) -> b != a) !spaces
      end
    | Bp { sp; a = i; set } ->
      let a, _ = pick sp in
      if set then A.bp_set a cow_text_addrs.(i)
      else A.bp_clear a cow_text_addrs.(i)
    | Find_map { sp; n } ->
      let a, _ = pick sp in
      ignore (A.find_map_addr a (n * Mem.page_size))
    | Exec sp ->
      let a, m = pick sp in
      A.unmap_all a;
      Hashtbl.reset m.frames;
      Hashtbl.reset m.mtext
    | Share_text { sp; from } ->
      let a, m = pick sp and b, n = pick from in
      let text = Hashtbl.copy n.mtext in
      A.text_share a ~from:b;
      Hashtbl.reset m.mtext;
      Hashtbl.iter (Hashtbl.replace m.mtext) text
  in
  List.iteri
    (fun i op ->
      try
        step op;
        check_cow_state !spaces;
        check_unmoved_generations !last_forks
      with Failure msg ->
        failwith (Printf.sprintf "step %d, %s: %s" i (show_cow_op op) msg))
    ops;
  check_cow_aliasing !spaces;
  true

let qcheck_cow_model =
  QCheck.Test.make ~name:"copy-on-write spaces read like plain copies"
    ~count:1000
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_cow_op ops))
       QCheck.Gen.(list_size (int_range 1 40) gen_cow_op))
    run_cow_ops

(* A checkpoint fork shares its source's page index array and copies
   only the frame array: a word a page, plus a constant for the space
   record, its page table and its text, written-text and breakpoint
   tables.  A hash-table copy of the page table costs about eight words
   a page.  Words are counted, not time: minor + major - promoted, so a
   frame array too large for the minor heap counts once. *)
let fork_checkpoint_constant_words = 128

let test_fork_checkpoint_words () =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  List.iter
    (fun pages ->
      let a = A.create ~id:1 in
      ignore
        (A.map a ~addr:cow_base ~len:(pages * Mem.page_size)
           ~prot:Mem.prot_rw ());
      A.write_u64 a cow_base 1;
      let copies = A.shared_copies () in
      let before = words () in
      let fork = A.fork_checkpoint copies a ~id:2 in
      let used = words () -. before in
      Alcotest.(check int) "the fork maps every page" pages (A.page_count fork);
      let bound = pages + fork_checkpoint_constant_words in
      Alcotest.(check bool)
        (Printf.sprintf "%d pages: %.0f words, at most %d" pages used bound)
        true
        (used <= float_of_int bound))
    [ 64; 1024 ]

let test_cpu_arith_loop () =
  (* sum 1..10 into r2 *)
  let ctx =
    run_program
      [ Asm.movi 1 10;
        Asm.movi 2 0;
        Asm.label "loop";
        Asm.I (Insn.Alu (Insn.Add, 2, Insn.Reg 1));
        Asm.subi 1 1;
        Asm.jnz 1 "loop";
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "sum" 55 ctx.Cpu.regs.(2)

let test_cpu_rcb_counts_conditional_only () =
  let ctx =
    run_program
      [ Asm.movi 1 7;
        Asm.label "loop";
        Asm.subi 1 1;
        Asm.jmp "next"; (* unconditional: no RCB *)
        Asm.label "next";
        Asm.jnz 1 "loop"; (* conditional: one RCB each retirement *)
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "rcb = loop iterations" 7 ctx.Cpu.pmu.Pmu.rcb

let test_cpu_call_ret_stack () =
  let ctx =
    run_program
      [ Asm.movi 15 0x5000; (* sp *)
        Asm.call "fn";
        Asm.movi 3 99;
        Asm.I Insn.Halt;
        Asm.label "fn";
        Asm.movi 2 42;
        Asm.ret ]
  in
  Alcotest.(check int) "callee ran" 42 ctx.Cpu.regs.(2);
  Alcotest.(check int) "fell through after ret" 99 ctx.Cpu.regs.(3);
  Alcotest.(check int) "sp balanced" 0x5000 ctx.Cpu.regs.(15)

let test_cpu_cas () =
  let ctx =
    run_program
      [ Asm.movi 1 0x4000;
        Asm.movi 2 0; (* expected *)
        Asm.movi 3 7; (* new *)
        Asm.I (Insn.Cas (1, 2, 3, 4));
        Asm.movi 5 7; (* expected now 7 *)
        Asm.movi 6 9;
        Asm.I (Insn.Cas (1, 5, 6, 7));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "first cas succeeded" 1 ctx.Cpu.regs.(4);
  Alcotest.(check int) "second cas succeeded" 1 ctx.Cpu.regs.(7);
  Alcotest.(check int) "value" 9 (Addr_space.read_u64 ctx.Cpu.space 0x4000)

let test_cpu_cas_failure_loads_current () =
  let ctx =
    run_program
      [ Asm.movi 1 0x4000;
        Asm.movi 8 55;
        Asm.store 8 1 0;
        Asm.movi 2 1; (* wrong expectation *)
        Asm.movi 3 7;
        Asm.I (Insn.Cas (1, 2, 3, 4));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "cas failed" 0 ctx.Cpu.regs.(4);
  Alcotest.(check int) "expected reg updated to current" 55 ctx.Cpu.regs.(2);
  Alcotest.(check int) "memory untouched" 55
    (Addr_space.read_u64 ctx.Cpu.space 0x4000)

let test_cpu_div_zero_faults () =
  let stop =
    run_program_stop
      [ Asm.movi 1 10; Asm.I (Insn.Alu (Insn.Div, 1, Insn.Imm 0)) ]
  in
  (match stop with
  | Some (Cpu.Stop_fault (Cpu.F_div _)) -> ()
  | other -> Alcotest.failf "expected div fault, got %a" pp_stop_opt other);
  (* rem by a zero register: faults on the rem itself, nothing written *)
  let ctx, stop, steps =
    run_program_full
      [ Asm.movi 1 10; Asm.I (Insn.Alu (Insn.Rem, 1, Insn.Reg 2)) ]
  in
  (match stop with
  | Some (Cpu.Stop_fault (Cpu.F_div pc)) ->
    Alcotest.(check int) "fault pc is the rem" 0x1001 pc
  | other -> Alcotest.failf "expected rem fault, got %a" pp_stop_opt other);
  Alcotest.(check int) "pc stays on the rem" 0x1001 ctx.Cpu.pc;
  Alcotest.(check int) "dividend untouched" 10 ctx.Cpu.regs.(1);
  Alcotest.(check int) "the faulting insn counts as a step" 2 steps

(* The guard on "an instruction that retires normally allocates
   nothing": a loop that calls a routine on another text page, so the
   fetch leaves its page twice an iteration, allocates the same minor
   words in one run whether that run retires about 10k or about 1M
   instructions.  It counts words, not time. *)
let test_cpu_retires_without_allocating () =
  let words iters =
    let space = fresh_space () in
    let main =
      Asm.assemble ~base:0x1000
        [ Asm.movi 15 0x6000;
          Asm.movi 1 iters;
          Asm.label "loop";
          Asm.I (Insn.Alu (Insn.Add, 2, Insn.Reg 1));
          Asm.I (Insn.Call 0x2000);
          Asm.subi 1 1;
          Asm.jnz 1 "loop";
          Asm.I Insn.Halt ]
    in
    Addr_space.text_load space ~base:0x1000 main.Asm.code;
    Addr_space.text_load space ~base:0x2000
      Insn.[| Alu (Xor, 3, Reg 2); Jcc (Lt, 3, Imm 0, 0x2000); Ret |];
    let ctx = Cpu.create ~space in
    ctx.Cpu.pc <- 0x1000;
    let before = Gc.minor_words () in
    let stop, steps = Cpu.run null_env ctx ~fuel:max_int in
    let after = Gc.minor_words () in
    (match stop with
    | Some (Cpu.Stop_fault (Cpu.F_ill _)) -> ()
    | other -> Alcotest.failf "expected the halt, got %a" pp_stop_opt other);
    (steps, int_of_float (after -. before))
  in
  let small_steps, small = words 1_400 and big_steps, big = words 140_000 in
  Alcotest.(check bool) "about 10k and 1M instructions" true
    (small_steps > 9_000 && small_steps < 11_000 && big_steps > 900_000
    && big_steps < 1_100_000);
  Alcotest.(check int) "same words for 100x the instructions" small big;
  Alcotest.(check bool) (Printf.sprintf "a few words a run (%d)" small) true
    (small <= 16)

(* A store retired against the page held for writes passes the write
   gate once, at the hold: a run whose one effect is a store must still
   move the space's generation (a checkpoint fork taken before it no
   longer equals the space), tell the write observer of the page, and
   land in a copy of a frame shared with a fork. *)
let test_cpu_store_moves_generation () =
  let space = fresh_space () in
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.movi 14 0x4000; Asm.movi 1 7; Asm.store 1 14 8; Asm.I Insn.Halt ]
  in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let fork = Addr_space.fork space ~id:2 in
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  let observed = ref [] in
  Addr_space.set_write_observer (fun _ ~addr ~len ->
      observed := (addr, len) :: !observed);
  Fun.protect ~finally:Addr_space.clear_write_observer (fun () ->
      let gen = space.Addr_space.generation in
      ignore (Cpu.run null_env ctx ~fuel:2);
      Alcotest.(check int) "two movs move nothing" gen
        space.Addr_space.generation;
      Alcotest.(check int) "nor tell the observer" 0 (List.length !observed);
      let _, steps = Cpu.run null_env ctx ~fuel:1 in
      Alcotest.(check int) "the store retired" 1 steps;
      Alcotest.(check bool) "the store moved the generation" true
        (space.Addr_space.generation <> gen);
      Alcotest.(check bool) "the observer was told of the page" true
        (List.exists
           (fun (addr, len) -> addr <= 0x4008 && 0x4010 <= addr + len)
           !observed));
  Alcotest.(check int) "the space has the store" 7
    (Addr_space.read_u64 space 0x4008);
  Alcotest.(check int) "the fork keeps its frame" 0
    (Addr_space.read_u64 fork 0x4008)

let test_cpu_breakpoint () =
  let space = fresh_space () in
  let prog =
    Asm.assemble ~base:0x1000 [ Asm.movi 1 1; Asm.movi 2 2; Asm.movi 3 3 ]
  in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  Addr_space.bp_set space 0x1001;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  Alcotest.(check int) "stopped after one insn" 1 steps;
  (match stop with
  | Some Cpu.Stop_bkpt -> ()
  | other -> Alcotest.failf "expected bkpt, got %a" pp_stop_opt other);
  Alcotest.(check int) "pc at breakpoint" 0x1001 ctx.Cpu.pc;
  (* Clearing the breakpoint lets execution continue. *)
  Addr_space.bp_clear space 0x1001;
  ignore (Cpu.run null_env ctx ~fuel:100);
  Alcotest.(check int) "resumed" 3 ctx.Cpu.regs.(3)

let test_cpu_singlestep () =
  let space = fresh_space () in
  let prog = Asm.assemble ~base:0 [ Asm.movi 1 1; Asm.movi 2 2 ] in
  Addr_space.text_load space ~base:0 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.single_step <- true;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  Alcotest.(check int) "one step" 1 steps;
  match stop with
  | Some Cpu.Stop_singlestep -> ()
  | other -> Alcotest.failf "expected singlestep, got %a" pp_stop_opt other

let enc insn =
  match Insn.encode insn with
  | Some w -> w
  | None -> Alcotest.failf "unencodable: %a" Insn.pp insn

let test_cpu_emit_jit () =
  (* Emit "mov r5, 77" at a fresh text address, then jump to it. *)
  let ctx =
    run_program
      [ Asm.movi 15 0x5000;
        Asm.movi 1 0x9000; (* jit target *)
        Asm.movi 2 (enc (Insn.Mov (5, Insn.Imm 77)));
        Asm.I (Insn.Emit (1, 2));
        Asm.movi 1 0x9001;
        Asm.movi 2 (enc Insn.Ret);
        Asm.I (Insn.Emit (1, 2));
        Asm.movi 6 0x9000;
        Asm.I (Insn.Callr 6);
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "jitted code ran" 77 ctx.Cpu.regs.(5)

let test_emit_marks_written_text () =
  let ctx =
    run_program
      [ Asm.movi 1 0x9000;
        Asm.movi 2 0; (* Nop *)
        Asm.I (Insn.Emit (1, 2));
        Asm.I Insn.Halt ]
  in
  Alcotest.(check bool) "written text recorded" true
    (Addr_space.text_was_written ctx.Cpu.space 0x9000);
  Alcotest.(check bool) "static text not marked" false
    (Addr_space.text_was_written ctx.Cpu.space 0x1000)

(* ---- the paged text map and the held windows ------------------------ *)

let test_bkpt_on_just_fetched () =
  let space = fresh_space () in
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.movi 1 5; Asm.label "loop"; Asm.subi 1 1; Asm.jnz 1 "loop";
        Asm.I Insn.Halt ]
  in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  (* movi, subi: the subi at 0x1001 was the last fetch *)
  ignore (Cpu.run null_env ctx ~fuel:2);
  Addr_space.bp_set space 0x1001;
  let stop, steps = Cpu.run null_env ctx ~fuel:100 in
  (match stop with
  | Some Cpu.Stop_bkpt -> ()
  | other -> Alcotest.failf "expected bkpt, got %a" pp_stop_opt other);
  Alcotest.(check int) "only the jnz ran" 1 steps;
  Alcotest.(check int) "pc on the breakpoint" 0x1001 ctx.Cpu.pc;
  Alcotest.(check int) "subi not re-executed" 4 ctx.Cpu.regs.(1)

let test_emit_over_just_fetched () =
  (* The loop's first instruction rewrites itself: the second pass must
     run the emitted instruction, not the one the first pass fetched. *)
  let items =
    [ Asm.movi 6 2;
      Asm.movi 7 0;
      Asm.label "x";
      Asm.movi 5 1;
      Asm.movi 1 0x1002;
      Asm.movi 2 (enc (Insn.Mov (5, Insn.Imm 99)));
      Asm.I (Insn.Alu (Insn.Add, 7, Insn.Reg 5));
      Asm.I (Insn.Emit (1, 2));
      Asm.subi 6 1;
      Asm.jnz 6 "x";
      Asm.I Insn.Halt ]
  in
  let ctx = run_program items in
  Alcotest.(check int) "original, then emitted insn" (1 + 99) ctx.Cpu.regs.(7);
  Alcotest.(check bool) "slot written in place" true
    (Addr_space.text_get ctx.Cpu.space 0x1002 = Some (Insn.Mov (5, Insn.Imm 99)))

let test_fork_isolates_text () =
  let parent = Addr_space.create ~id:1 in
  Addr_space.text_load parent ~base:0x1000 [| Insn.Nop; Insn.Ret |];
  (* fetch from the page the child will write *)
  ignore (Addr_space.text_get parent 0x1000);
  let child = Addr_space.fork parent ~id:2 in
  Alcotest.(check bool) "child inherits text" true
    (Addr_space.text_get child 0x1001 = Some Insn.Ret);
  Addr_space.text_write child 0x1000 Insn.Pause;
  Alcotest.(check bool) "child sees its write" true
    (Addr_space.text_get child 0x1000 = Some Insn.Pause);
  Alcotest.(check bool) "parent unchanged by child write" true
    (Addr_space.text_get parent 0x1000 = Some Insn.Nop);
  Addr_space.text_set parent 0x1001 Insn.Syscall;
  Addr_space.text_set parent 0x9000 Insn.Nop;
  Alcotest.(check bool) "child unchanged by parent write" true
    (Addr_space.text_get child 0x1001 = Some Insn.Ret);
  Alcotest.(check bool) "parent's new page not in child" true
    (Addr_space.text_get child 0x9000 = None);
  Alcotest.(check int) "child text count" 2 (Addr_space.text_count child);
  Alcotest.(check int) "parent text count" 3 (Addr_space.text_count parent)

let test_unmap_all_drops_fetched_text () =
  let space = fresh_space () in
  Addr_space.text_load space ~base:0x1000 [| Insn.Nop; Insn.Ret |];
  Alcotest.(check bool) "fetched" true
    (Addr_space.text_get space 0x1001 = Some Insn.Ret);
  Addr_space.unmap_all space;
  Alcotest.(check bool) "gone after exec" true
    (Addr_space.text_get space 0x1001 = None);
  Alcotest.(check int) "empty" 0 (Addr_space.text_count space)

let test_text_fold_ascending () =
  let space = Addr_space.create ~id:1 in
  List.iter
    (fun a -> Addr_space.text_set space a Insn.Nop)
    [ 0x9001; 0x13ff; -5; 0x1400; 0x9000; 0 ];
  Alcotest.(check (list int)) "ascending across pages"
    [ -5; 0; 0x13ff; 0x1400; 0x9000; 0x9001 ]
    (List.rev (Addr_space.text_fold (fun a _ acc -> a :: acc) space []))

(* ---- text words: what gets one, and what a page costs ------------- *)

let register_only = function
  | Insn.Nop | Insn.Pause | Insn.Mov _ | Insn.Jmp _ | Insn.Jcc _ -> true
  | Insn.Alu ((Insn.Div | Insn.Rem), _, Insn.Imm 0) -> false
  | Insn.Alu _ -> true
  | _ -> false

(* Every image a workload's setup installs, by path. *)
let workload_images (w : Workload.t) =
  let k = Kernel.create ~seed:1 () in
  w.Workload.setup k;
  let vfs = Kernel.vfs k in
  let rec walk dir acc =
    List.fold_left
      (fun acc name ->
        let path = if dir = "/" then "/" ^ name else dir ^ "/" ^ name in
        match (Vfs.resolve vfs path).Vfs.kind with
        | Vfs.Dir _ -> walk path acc
        | Vfs.Reg reg -> (
          match Vfs.get_image reg with
          | Some img -> (w.Workload.name ^ ":" ^ path, img) :: acc
          | None -> acc))
      acc (Vfs.readdir vfs dir)
  in
  walk "/" []

(* The inner loop retires only what has a word tag, so every
   register-only instruction the workloads run must get one: each in
   the paper workloads' and the serve workload's images, each shape the
   JIT can emit ([Insn.encode]'s, decoded, at its limits), and a branch
   to any address up to the rr page's text. *)
let test_workloads_get_word_tags () =
  let tagged what insn =
    if Addr_space.text_tag insn = Addr_space.text_tag_general then
      Alcotest.failf "%s: %a runs from the instruction array" what Insn.pp
        insn
  in
  let images =
    List.concat_map workload_images
      [ Wl_cp.make (); Wl_make.make (); Wl_octane.make ();
        Wl_htmltest.make (); Wl_samba.make (); Wl_serve.make () ]
  in
  Alcotest.(check bool) "images found" true (List.length images >= 6);
  let n = ref 0 in
  List.iter
    (fun (what, (img : Image.t)) ->
      Array.iter
        (fun insn ->
          if register_only insn then begin
            incr n;
            tagged what insn
          end)
        img.Image.prog.Asm.code)
    images;
  Alcotest.(check bool) (Printf.sprintf "%d register-only instructions" !n)
    true (!n > 500);
  let regs = List.init Insn.num_regs Fun.id in
  let emitted =
    List.concat_map
      (fun r ->
        Insn.
          [ Mov (r, Imm 0); Mov (r, Imm 0xffff); Alu (Add, r, Imm 0);
            Alu (Add, r, Imm 0xffff); Jcc (Ne, r, Imm 0, 0);
            Jcc (Ne, r, Imm 0, 0xffff_ffff) ])
      regs
    @ Insn.[ Nop; Pause; Jmp 0; Jmp 0xffff_ffff ]
  in
  List.iter
    (fun insn ->
      match Option.bind (Insn.encode insn) Insn.decode with
      | Some d when d = insn -> tagged "emitted" insn
      | _ -> Alcotest.failf "%a does not round-trip" Insn.pp insn)
    emitted;
  let top = Layout.rr_page_text in
  List.iter (tagged "a branch to the rr page")
    (Insn.Jmp top
    :: List.concat_map
         (fun c -> Insn.[ Jcc (c, 15, Imm (-1), top); Jcc (c, 0, Reg 15, top) ])
         Insn.[ Eq; Ne; Lt; Le; Gt; Ge ])

(* A text page costs by the slots it holds.  Words are counted, not
   time: minor + major - promoted after a minor collection, as in
   "fork_checkpoint costs a word a page".  With 1024-slot pages of
   [Insn.t option], this 8-instruction program's space and text took
   1,152 words, and 20,000 one-entry pages, what a forged checkpoint's
   text section can ask for at a few bytes an entry, 167 MB. *)
let test_text_costs_its_slots () =
  let words () =
    Gc.minor ();
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  let prog =
    Asm.assemble ~base:0x1000
      [ Asm.movi 1 10; Asm.movi 2 0; Asm.label "l"; Asm.addi 2 3;
        Asm.subi 1 1; Asm.jnz 1 "l"; Asm.movi 0 0; Asm.I Insn.Syscall;
        Asm.I Insn.Halt ]
  in
  Alcotest.(check int) "eight instructions" 8 (Array.length prog.Asm.code);
  let before = words () in
  let space = A.create ~id:1 in
  A.text_load space ~base:0x1000 prog.Asm.code;
  let used = words () -. before in
  Alcotest.(check int) "loaded" 8 (A.text_count space);
  Alcotest.(check bool)
    (Printf.sprintf "an 8-instruction program: %.0f words, under 300" used)
    true (used < 300.);
  let space = A.create ~id:1 in
  let before = words () in
  for k = 0 to 19_999 do
    A.text_set space (k lsl A.text_page_bits)
      (Insn.Alu (Insn.Add, 1, Insn.Imm k))
  done;
  let bytes = (words () -. before) *. float_of_int (Sys.word_size / 8) in
  Alcotest.(check int) "set" 20_000 (A.text_count space);
  Alcotest.(check bool)
    (Printf.sprintf "20,000 one-entry pages: %.1f MB, under 8" (bytes /. 1e6))
    true (bytes < 8e6)

(* Random programs whose code straddles a text-page boundary and which
   JIT-emit into a third page and call there, mixed with loads, stores,
   every ALU op (div/rem by registers that may hold 0) and counted Jcc
   loops.  Running them in one [Cpu.run] and in [~fuel:1] slices must
   end in the same machine state: the held windows and the hoisted
   breakpoint/PMU checks are invisible. *)
let paged_base = 0x1400 - 24 (* straddles the page boundary at 0x1400 *)
let jit_addr = 0x2000

let paged_program_gen =
  QCheck.Gen.(
    let reg = int_range 3 10 in
    let op =
      oneofl
        Insn.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ]
    in
    let src =
      oneof
        [ map (fun r -> Insn.Reg r) reg;
          map (fun v -> Insn.Imm (v land 0xff)) int ]
    in
    let simple =
      frequency
        [ (4, map3 (fun o r s -> [ Asm.I (Insn.Alu (o, r, s)) ]) op reg src);
          (2, map2 (fun r off -> [ Asm.store r 14 (off land 0xff0) ]) reg int);
          (2, map2 (fun r off -> [ Asm.load r 14 (off land 0xff0) ]) reg int) ]
    in
    let jit =
      (* emit "mov r, v; add r, w; ret" at jit_addr and call it *)
      map3
        (fun r v w ->
          let emit_at k insn =
            [ Asm.movi 1 (jit_addr + k); Asm.movi 2 (enc insn);
              Asm.I (Insn.Emit (1, 2)) ]
          in
          emit_at 0 (Insn.Mov (r, Insn.Imm v))
          @ emit_at 1 (Insn.Alu (Insn.Add, r, Insn.Imm w))
          @ emit_at 2 Insn.Ret
          @ [ Asm.movi 11 jit_addr; Asm.I (Insn.Callr 11) ])
        reg (int_bound 0xffff) (int_bound 0xffff)
    in
    let straight = frequency [ (5, simple); (1, jit) ] in
    let block =
      frequency
        [ (4, map (fun b -> `Straight b) straight);
          (1, map2 (fun n body -> `Loop (n, List.concat body))
                (int_range 1 12) (list_size (1 -- 4) straight)) ]
    in
    map2
      (fun inits blocks ->
        [ Asm.movi 14 0x4000; Asm.movi 15 0x5000 ]
        @ List.mapi (fun i v -> Asm.movi (3 + i) v) inits
        @ List.concat
            (List.mapi
               (fun i -> function
                 | `Straight b -> b
                 | `Loop (n, body) ->
                   let l = Printf.sprintf "loop%d" i in
                   (Asm.movi 12 n :: Asm.label l :: body)
                   @ [ Asm.subi 12 1; Asm.jnz 12 l ])
               blocks)
        @ [ Asm.I Insn.Halt ])
      (list_repeat 8 (int_bound 3))
      (list_size (1 -- 25) block))

let run_paged ~sliced items =
  let space = fresh_space () in
  let prog = Asm.assemble ~base:paged_base items in
  Addr_space.text_load space ~base:paged_base prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- paged_base;
  let fuel = 100_000 in
  let stop, steps =
    if not sliced then Cpu.run null_env ctx ~fuel
    else
      let rec go steps =
        if steps >= fuel then (None, steps)
        else
          match Cpu.run null_env ctx ~fuel:1 with
          | None, n -> go (steps + n)
          | stop, n -> (stop, steps + n)
      in
      go 0
  in
  (stop, steps, Array.to_list (Cpu.copy_regs ctx), ctx.Cpu.pc,
   Pmu.snapshot ctx.Cpu.pmu)

let qcheck_paged_fetch_sliced =
  QCheck.Test.make ~name:"paged fetch: one run = fuel:1 slices" ~count:200
    (QCheck.make paged_program_gen) (fun items ->
      run_paged ~sliced:false items = run_paged ~sliced:true items)

(* ---- the interpreter against its reference --------------------------- *)

(* Random programs run through [Cpu.run] and through [Cpu_ref.run], the
   interpreter it replaced, each under the same random [~fuel] slices
   and the same supervisor, which clears a breakpoint it stops on,
   clears single-step after the step, fills a trapped RDTSC's register
   and carries on after every stop but a fault.  Every run must return
   the same stop and step count, and the two machines must end with the
   same registers, pc, counters, scratch bytes and text.

   The code straddles the text-page boundary at 0x1400 and calls a
   routine on a second page.  It draws every opcode, every condition
   and ALU op with register and immediate operands (division and
   remainder by registers that may hold 0 and by [Imm 0], comparisons
   that are often equal), immediates, offsets and branch targets at and
   one past each limit of the text word's fields, both signs, and jumps
   into the gaps of the three pages, outside their windows.  It emits
   encodable instructions over its own code, into the routine's page
   and below and above the windows, which widens them.  A case may
   fork the space first, so that every text page and data frame is
   shared copy-on-write and the first [Emit] into a page or store into
   a frame copies it; the fork must keep its bytes.

   Its loads, stores, pushes, pops, calls and returns land on the data
   pages [mem_off] and [stack_gen] describe: read-write ones that own
   their bytes or borrow the zero buffer, a read-only, a write-only
   and unmapped ones, at their edges, u64s at offsets 4089-4095 that
   straddle into the next page among them, mostly on one page a case
   picks, so that a store and then a load meet there.  Byte stores and
   [Cas] land on pages a load has just read.  With a write observer
   installed, both interpreters must tell it of the same pages in every
   run, and in every run both must move the space's generation or
   neither.

   Half the cases run mostly in [Cpu.run]'s inner loop instead: no
   breakpoint, no single-step, runs of register-only instructions that
   cross 0x1400 mid-run, fuels that end inside them, zero divisors
   among the ALU ops, the same field edges and gaps, memory words, and
   a PMU interrupt re-armed before every run a few RCBs past where the
   run starts.  "reference cases draw every tag" counts the text-word
   tags the two generators draw. *)
let ref_base = 0x1400 - 12
let ref_routine = 0x2000
let ref_routine_len = 6
let ref_prelude = 16 (* r0..r12, then r13, r14, r15 *)

type ref_case = {
  rc_base : int; (* the prelude's address; [rc_main] follows it *)
  rc_main : Insn.t array; (* after the prelude *)
  rc_routine : Insn.t array; (* ends in [Ret] *)
  rc_inits : int array; (* r0..r12 *)
  rc_fuels : int list;
  rc_bps : int list; (* breakpoint addresses *)
  rc_steps : bool list; (* single-step before run i (cycled) *)
  rc_pmu : (int * int) option; (* RCB target, skid *)
  rc_ahead : (int * int) list;
      (* re-arm before run i (cycled): RCBs past the count, skid *)
  rc_tsc_trap : bool;
  rc_fork : bool;
  rc_sp : int; (* the stack pointer, r15 *)
  rc_observe : bool; (* a write observer installed *)
}

(* Registers a case may write (r13-r15 hold the routine, scratch and
   stack addresses) and read, values that hit the edge cases, operands
   and conditions, shared by both generators below. *)
let dst = QCheck.Gen.int_bound 12
let src = QCheck.Gen.int_bound 15
let small = QCheck.Gen.oneofl [ 0; 1; 2; 3; -1; 63; 64; 65; max_int; min_int ]

(* The text word's signed fields, by width: an immediate or [Jmp]
   target (53 bits), a [Jcc] target beside a register (49) and a [Jcc]
   immediate (21); and a [Jcc] target beside an immediate, unsigned 32
   bits.  Each limit and one past it: the one past makes the
   instruction general. *)
let signed_edges bits =
  let top = 1 lsl (bits - 1) in
  [ top - 1; -top; top; -top - 1 ]

let value_edges = QCheck.Gen.oneofl (signed_edges 53 @ signed_edges 21)

let target_edges =
  QCheck.Gen.oneofl
    (signed_edges 53 @ signed_edges 49 @ [ 0; (1 lsl 32) - 1; -1; 1 lsl 32 ])

let operand =
  QCheck.Gen.(
    frequency
      [ (4, map (fun r -> Insn.Reg r) src);
        (4, map (fun v -> Insn.Imm v) small);
        (1, map (fun v -> Insn.Imm v) value_edges) ])

let cond = QCheck.Gen.oneofl Insn.[ Eq; Ne; Lt; Le; Gt; Ge ]

(* The data pages, by their number from r14's 0x4000: 0 and 1 (the
   stack's) read-write, 2 read-only, 3 write-only, -1 and 4 unmapped.
   Pages 0 and 2 start with a pattern, so they own their bytes; 1 and
   3 borrow the zero buffer. *)
let mem_base = 0x4000
let mem_len = 4 * Mem.page_size

let map_ref_pages space =
  ignore
    (Addr_space.map space ~addr:(mem_base + 0x2000) ~len:0x1000
       ~prot:Mem.prot_r ());
  ignore
    (Addr_space.map space ~addr:(mem_base + 0x3000) ~len:0x1000
       ~prot:Mem.prot_w ());
  List.iter
    (fun page ->
      for k = 0 to 7 do
        Addr_space.write_u64 ~force:true space
          (mem_base + (page * 0x1000) + (8 * k))
          ((page + 1) * 0x0101_0101 * (k + 1))
      done)
    [ 0; 2 ]

(* Offsets from r14 for a case whose chosen page is [hot]: most on page
   0, aligned; the rest at a page's edges, mostly the chosen page's, the
   offsets 4089-4095 making u64s that straddle into the next page; a few
   at the limits of the word's 49-bit offset field. *)
let mem_off hot =
  QCheck.Gen.(
    let page = frequency [ (3, return hot); (1, int_range (-1) 4) ] in
    let edge =
      frequency
        [ (3, oneofl [ 0; 8; 0x800; 4080; 4088 ]); (2, int_range 4089 4095) ]
    in
    frequency
      [ (6, map (fun v -> v land 0xff8) int);
        (4, map2 (fun p e -> (p * 0x1000) + e) page edge);
        (1, oneofl (signed_edges 49)) ])

let hot_page = QCheck.Gen.int_range (-1) 4

(* The stack pointer: mostly mid-page on page 1; else where a push or a
   pop meets a page's edge, straddles it, or lands on the read-only,
   write-only or an unmapped page. *)
let stack_gen =
  QCheck.Gen.(
    frequency
      [ (6, return 0x5800);
        (2, oneofl [ 0x5000; 0x5008; 0x4ff8; 0x4008 ]);
        (2, int_range 0x5001 0x5007);
        (1, oneofl [ 0x6008; 0x6800; 0x7010; 0x7800; 0x8008; 0x4000 ]) ])

(* Addresses outside the three windows but on their pages: below the
   first page's, above the second's and above the routine's. *)
let gaps ~base ~main_end =
  QCheck.Gen.oneof
    [ QCheck.Gen.int_range (base - 16) (base - 1);
      QCheck.Gen.int_range main_end (main_end + 8);
      QCheck.Gen.int_range (ref_routine + ref_routine_len) (ref_routine + 12) ]

let ref_case_gen =
  QCheck.Gen.(
    let alu = oneofl Insn.[ Add; Sub; Mul; Div; Rem; And; Or; Xor; Shl; Shr ] in
    let* n = int_range 4 40 in
    let main_end = ref_base + ref_prelude + n in
    let gaps = gaps ~base:ref_base ~main_end in
    let target =
      frequency
        [ (12, int_range ref_base (main_end - 1));
          (2, int_range ref_routine (ref_routine + ref_routine_len - 1));
          (1, gaps);
          (1, target_edges) ]
    in
    let main_target = int_range (ref_base + ref_prelude) (main_end - 1) in
    let encodable =
      let open Insn in
      oneof
        [ oneofl [ Nop; Syscall; Ret; Pause ];
          map2 (fun r v -> Mov (r, Imm v)) dst (int_bound 3);
          map2 (fun r v -> Alu (Add, r, Imm v)) dst (int_bound 3);
          map2 (fun r t -> Jcc (Ne, r, Imm 0, t)) dst main_target;
          map (fun t -> Jmp t) main_target ]
    in
    let emit_word = map (fun i -> Option.get (Insn.encode i)) encodable in
    let emit_addr =
      frequency
        [ (2, main_target);
          (1, int_range ref_routine (ref_routine + 12));
          (1, gaps) ]
    in
    let* hot = hot_page in
    let mem_off = mem_off hot in
    let insn =
      let open Insn in
      frequency
        [ (1, oneofl [ Nop; Pause; Syscall; Ret; Halt ]);
          (2, map2 (fun r o -> Mov (r, o)) dst operand);
          (10, map3 (fun op r o -> Alu (op, r, o)) alu dst operand);
          (3, map2 (fun r off -> Load (r, 14, off)) dst mem_off);
          (3, map2 (fun r off -> Store (r, 14, off)) src mem_off);
          (1, map2 (fun r off -> Load8 (r, 14, off)) dst mem_off);
          (1, map2 (fun r off -> Store8 (r, 14, off)) src mem_off);
          (1, map (fun t -> Jmp t) target);
          ( 8,
            let* c = cond and* r = src and* o = operand and* t = target in
            return (Jcc (c, r, o, t)) );
          (1, return (Call ref_routine));
          (1, map (fun t -> Call t) target);
          (1, return (Callr 13));
          (2, map (fun o -> Push o) operand);
          (2, map (fun r -> Pop r) dst);
          (1, map (fun n -> Hook n) (int_bound 3));
          (1, map (fun r -> Rdtsc r) dst);
          (1, map (fun r -> Rdrand r) dst);
          (1, map (fun r -> Cpuid_core r) dst);
          ( 1,
            map4 (fun a e nw d -> Cas (a, e, nw, d)) (oneofl [ 14; 15 ]) dst
              dst dst );
          (1, map2 (fun a v -> Emit (a, v)) dst dst) ]
    in
    (* An emit that decodes: set r11 and r12, then emit. *)
    let emit =
      map2
        (fun a w -> Insn.[ Mov (11, Imm a); Mov (12, Imm w); Emit (11, 12) ])
        emit_addr emit_word
    in
    (* A load holds its page, a byte store or a [Cas] (given the value
       just read, so that it writes) changes it, and a load reads it
       back: the hold must not outlive the write, which unshares a page
       a fork shares.  Or a store holds its page and a load reads it
       back, which faults if the page is write-only; or a load holds the
       page first, and the store's write hold must carry the read hold
       to the frame the write gate gives.  Or a u64 is copied from one
       page to another and back, the read and write holds on two
       pages. *)
    let reread =
      let open Insn in
      let* base = oneofl [ 14; 15 ] and* o = mem_off and* s = src in
      let* e = dst and* nw = dst and* d = dst and* b = dst in
      let* page = int_bound 3 and* page' = int_bound 3 and* o2 = mem_off in
      let o' = (page * 0x1000) + (o land 0xff8) in
      let o'' = (page' * 0x1000) + (o2 land 0xff8) in
      oneofl
        [ [ Load (e, base, o); Store8 (s, base, o); Load (b, base, o) ];
          [ Load (e, base, 0); Cas (base, e, nw, d); Load (b, base, 0) ];
          [ Store (s, 14, o'); Load (b, 14, o') ];
          [ Load (e, 14, o'); Store (s, 14, o'); Load (b, 14, o') ];
          [ Load (e, 14, o'); Store (e, 14, o''); Load (b, 14, o'');
            Store (b, 14, o') ] ]
    in
    let* items =
      list_repeat n
        (frequency
           [ (12, map (fun i -> [ i ]) insn); (1, emit); (2, reread) ])
    in
    let* routine = list_repeat (ref_routine_len - 1) insn in
    let* inits = array_repeat 13 small in
    let* fuels = list_size (int_range 1 4) (oneofl [ 1; 2; 3; 7; 40; 5000 ]) in
    let* bps = list_size (int_bound 3) target in
    let* steps =
      list_size (int_range 1 6)
        (frequency [ (4, return false); (1, return true) ])
    in
    let* pmu = opt (pair (int_bound 30) (int_bound Pmu.max_skid)) in
    let* rc_tsc_trap = bool and* rc_fork = bool in
    let* rc_sp = stack_gen and* rc_observe = bool in
    return
      { rc_base = ref_base;
        rc_main = Array.of_list (List.concat items);
        rc_routine = Array.of_list (routine @ [ Insn.Ret ]);
        rc_inits = inits;
        rc_fuels = fuels;
        rc_bps = bps;
        rc_steps = steps;
        rc_pmu = pmu;
        rc_ahead = [];
        rc_tsc_trap;
        rc_fork;
        rc_sp;
        rc_observe })

(* Mostly register-only code whose first [below] instructions lie under
   0x1400, so that runs cross the page boundary; an occasional memory
   op stays in the inner loop or leaves it, and a stop or call leaves
   it. *)
let inner_case_gen =
  QCheck.Gen.(
    let alu = oneofl Insn.[ Add; Sub; Mul; And; Or; Xor; Shl; Shr ] in
    let* below = int_range 1 24 in
    let* n = int_range (below + 4) (below + 48) in
    let base = 0x1400 - ref_prelude - below in
    let main_start = base + ref_prelude in
    (* A jump to the routine's page or into a gap leaves the held
       window, so a run that missed leaving it would show. *)
    let target =
      frequency
        [ (24, int_range main_start (main_start + n - 1));
          (4, int_range ref_routine (ref_routine + ref_routine_len - 1));
          (1, gaps ~base ~main_end:(main_start + n));
          (1, target_edges) ]
    in
    let reg_only =
      let open Insn in
      frequency
        [ (1, oneofl [ Nop; Pause ]);
          (3, map2 (fun r o -> Mov (r, o)) dst operand);
          (10, map3 (fun op r o -> Alu (op, r, o)) alu dst operand);
          (1, map (fun t -> Jmp t) target);
          ( 6,
            let* c = cond and* r = src and* o = operand and* t = target in
            return (Jcc (c, r, o, t)) ) ]
    in
    (* Divisors: a register that may hold 0, or rarely an immediate 0. *)
    let division =
      let open Insn in
      let* op = oneofl [ Div; Rem ] and* r = dst in
      let* o =
        frequency [ (6, map (fun s -> Reg s) src); (1, return (Imm 0)) ]
      in
      return (Alu (op, r, o))
    in
    let* hot = hot_page in
    let leaves =
      let open Insn in
      frequency
        [ (1, oneofl [ Syscall; Ret ]);
          (2, map2 (fun r off -> Load (r, 14, off)) dst (mem_off hot));
          (2, map2 (fun r off -> Store (r, 14, off)) src (mem_off hot));
          (1, return (Call ref_routine));
          (1, map (fun o -> Push o) operand);
          (1, map (fun r -> Pop r) dst);
          (1, map (fun n -> Hook n) (int_bound 3));
          (1, map (fun r -> Rdtsc r) dst) ]
    in
    let insn = frequency [ (40, reg_only); (2, division); (5, leaves) ] in
    let* main = list_repeat n insn in
    let* routine = list_repeat (ref_routine_len - 1) reg_only in
    let* inits = array_repeat 13 small in
    let* fuels =
      list_size (int_range 1 4) (oneof [ int_range 1 12; int_range 13 80 ])
    in
    let* pmu = opt (pair (int_bound 30) (int_bound Pmu.max_skid)) in
    let* ahead =
      list_size (int_bound 3) (pair (int_range 1 4) (int_bound Pmu.max_skid))
    in
    let* rc_tsc_trap = bool and* rc_fork = bool in
    let* rc_sp = stack_gen and* rc_observe = bool in
    return
      { rc_base = base;
        rc_main = Array.of_list main;
        rc_routine = Array.of_list (routine @ [ Insn.Ret ]);
        rc_inits = inits;
        rc_fuels = fuels;
        rc_bps = [];
        rc_steps = [ false ];
        rc_pmu = pmu;
        rc_ahead = ahead;
        rc_tsc_trap;
        rc_fork;
        rc_sp;
        rc_observe })

let show_ref_case c =
  let list f l = String.concat "; " (List.map f l) in
  let insns a = list (Fmt.str "%a" Insn.pp) (Array.to_list a) in
  Printf.sprintf
    "base %#x main [%s]\nroutine [%s]\ninits [%s] fuels [%s] bps [%s] \
     steps [%s] pmu %s ahead [%s] tsc_trap=%b fork=%b sp=%#x observe=%b"
    c.rc_base (insns c.rc_main) (insns c.rc_routine)
    (list string_of_int (Array.to_list c.rc_inits))
    (list string_of_int c.rc_fuels)
    (list (Printf.sprintf "%#x") c.rc_bps)
    (list string_of_bool c.rc_steps)
    (match c.rc_pmu with
    | None -> "off"
    | Some (t, s) -> Printf.sprintf "rcb %d skid %d" t s)
    (list (fun (d, s) -> Printf.sprintf "+%d skid %d" d s) c.rc_ahead)
    c.rc_tsc_trap c.rc_fork c.rc_sp c.rc_observe

(* Drive one interpreter through a case; returns every run's result
   (with whether it moved the generation and the pages it told the
   observer of) and the final machine, with the fork's data. *)
let drive_ref run c =
  let space = fresh_space () in
  map_ref_pages space;
  let prelude =
    Array.append
      (Array.mapi (fun r v -> Insn.Mov (r, Insn.Imm v)) c.rc_inits)
      Insn.
        [| Mov (13, Imm ref_routine); Mov (14, Imm mem_base);
           Mov (15, Imm c.rc_sp) |]
  in
  Addr_space.text_load space ~base:c.rc_base (Array.append prelude c.rc_main);
  Addr_space.text_load space ~base:ref_routine c.rc_routine;
  (* A fork gives the space a fresh stamp: it owns none of its text
     pages, and its first write to each copies it.  Its data frames are
     shared until written. *)
  let fork = if c.rc_fork then Some (Addr_space.fork space ~id:2) else None in
  List.iter (Addr_space.bp_set space) c.rc_bps;
  let observed = Hashtbl.create 8 in
  if c.rc_observe then
    Addr_space.set_write_observer (fun _ ~addr ~len ->
        for p = Mem.page_index addr to Mem.page_index (addr + len - 1) do
          Hashtbl.replace observed p ()
        done);
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- c.rc_base;
  ctx.Cpu.tsc_trap <- c.rc_tsc_trap;
  Option.iter
    (fun (t, skid) -> Pmu.program_interrupt ctx.Cpu.pmu ~target:t ~skid)
    c.rc_pmu;
  let ticks = ref 0 in
  let env =
    { Cpu.rdtsc =
        (fun () ->
          incr ticks;
          1000 + !ticks);
      rdrand =
        (fun () ->
          incr ticks;
          !ticks * 7919) }
  in
  let fuels = Array.of_list c.rc_fuels and ss = Array.of_list c.rc_steps in
  let ahead = Array.of_list c.rc_ahead in
  let rec go i total acc =
    if i >= 300 || total >= 3000 then List.rev acc
    else begin
      ctx.Cpu.single_step <- ss.(i mod Array.length ss);
      if ahead <> [||] then begin
        let d, skid = ahead.(i mod Array.length ahead) in
        let pmu = ctx.Cpu.pmu in
        Pmu.program_interrupt pmu ~target:(pmu.Pmu.rcb + d) ~skid
      end;
      Hashtbl.reset observed;
      let gen = space.Addr_space.generation in
      let stop, steps = run env ctx ~fuel:fuels.(i mod Array.length fuels) in
      let pages =
        List.sort compare (Hashtbl.fold (fun p () l -> p :: l) observed [])
      in
      let acc = (stop, steps, space.Addr_space.generation <> gen, pages) :: acc
      and total = total + steps in
      match stop with
      | Some (Cpu.Stop_fault _) -> List.rev acc
      | Some Cpu.Stop_bkpt ->
        Addr_space.bp_clear space ctx.Cpu.pc;
        go (i + 1) total acc
      | Some (Cpu.Stop_tsc r) ->
        ctx.Cpu.regs.(r) <- 77 + i;
        go (i + 1) total acc
      | None
      | Some
          ( Cpu.Stop_syscall | Cpu.Stop_hook _ | Cpu.Stop_pmu
          | Cpu.Stop_singlestep ) ->
        go (i + 1) total acc
    end
  in
  (* Run first: a tuple's parts are evaluated right to left. *)
  let runs =
    Fun.protect ~finally:Addr_space.clear_write_observer (fun () -> go 0 0 [])
  in
  let data sp =
    Bytes.to_string (Addr_space.read_bytes ~force:true sp mem_base mem_len)
  in
  ( runs,
    Array.to_list (Cpu.copy_regs ctx),
    ctx.Cpu.pc,
    Pmu.snapshot ctx.Cpu.pmu,
    data space,
    Option.map data fork,
    List.rev (Addr_space.text_fold (fun a i acc -> (a, i) :: acc) space []) )

(* About 1,100 of the 3,000 cases set breakpoints, and about 370 more
   draw the first generator's memory sequences with none, so that the
   held pages serve them. *)
let qcheck_cpu_matches_ref =
  QCheck.Test.make ~name:"Cpu.run matches the reference interpreter"
    ~count:3000
    (QCheck.make ~print:show_ref_case
       (QCheck.Gen.oneof [ ref_case_gen; inner_case_gen ]))
    (fun c -> drive_ref Cpu.run c = drive_ref Cpu_ref.run c)

(* How often the reference generators draw each text-word tag, over 1000
   cases from a fixed seed: every tag must be drawn, the general one
   included.  The counts are printed to the test's log. *)
let test_ref_tag_counts () =
  let counts = Array.make 64 0 in
  let rand = Random.State.make [| 30 |] in
  for _ = 1 to 1000 do
    let c = QCheck.Gen.oneof [ ref_case_gen; inner_case_gen ] rand in
    let count i =
      let t = Addr_space.text_tag i in
      counts.(t) <- counts.(t) + 1
    in
    Array.iter count c.rc_main;
    Array.iter count c.rc_routine
  done;
  let alu = [| "add"; "sub"; "mul"; "div"; "rem"; "and"; "or"; "xor"; "shl";
               "shr" |] in
  let cond = [| "jeq"; "jne"; "jlt"; "jle"; "jgt"; "jge" |] in
  let mem =
    [| "load"; "pop"; "ret"; "store"; "push, register"; "push, immediate";
       "call"; "callr" |]
  in
  let name t =
    let kind = if t land 1 = 0 then "register" else "immediate" in
    if t = Addr_space.text_tag_general then "general"
    else if t = 2 then "nop/pause"
    else if t = 3 then "jmp"
    else if t < 6 then "mov, " ^ kind
    else if t < 26 then alu.((t - 6) / 2) ^ ", " ^ kind
    else if t < 38 then cond.((t - 26) / 2) ^ ", " ^ kind
    else mem.(t - 38)
  in
  for t = 1 to 45 do
    Printf.printf "tag %2d %-24s %6d\n" t (name t) counts.(t);
    if counts.(t) = 0 then Alcotest.failf "tag %d (%s) never drawn" t (name t)
  done

let test_pmu_interrupt_fires_with_skid () =
  let space = fresh_space () in
  let items =
    [ Asm.movi 1 1000; Asm.label "loop"; Asm.subi 1 1; Asm.jnz 1 "loop";
      Asm.I Insn.Halt ]
  in
  let prog = Asm.assemble ~base:0x1000 items in
  Addr_space.text_load space ~base:0x1000 prog.Asm.code;
  let ctx = Cpu.create ~space in
  ctx.Cpu.pc <- 0x1000;
  Pmu.program_interrupt ctx.Cpu.pmu ~target:100 ~skid:11;
  let stop, _ = Cpu.run null_env ctx ~fuel:100000 in
  (match stop with
  | Some Cpu.Stop_pmu -> ()
  | other -> Alcotest.failf "expected pmu, got %a" pp_stop_opt other);
  Alcotest.(check bool) "rcb past target (skid)" true
    (ctx.Cpu.pmu.Pmu.rcb >= 100);
  Alcotest.(check bool) "skid bounded"
    true
    (ctx.Cpu.pmu.Pmu.rcb <= 100 + Pmu.max_skid)

let test_pmu_rcb_deterministic () =
  (* Two runs of the same program, different entropy for rdtsc/rdrand:
     identical RCB counts even though register contents differ. *)
  let items =
    [ Asm.movi 1 50;
      Asm.label "loop";
      Asm.I (Insn.Rdtsc 4);
      Asm.I (Insn.Rdrand 5);
      Asm.subi 1 1;
      Asm.jnz 1 "loop";
      Asm.I Insn.Halt ]
  in
  let run seed =
    let space = fresh_space () in
    let prog = Asm.assemble ~base:0x1000 items in
    Addr_space.text_load space ~base:0x1000 prog.Asm.code;
    let ctx = Cpu.create ~space in
    ctx.Cpu.pc <- 0x1000;
    let e = Entropy.create seed in
    let env =
      { Cpu.rdtsc = (fun () -> Entropy.bits e); rdrand = (fun () -> Entropy.bits e) }
    in
    ignore (Cpu.run env ctx ~fuel:100000);
    ctx
  in
  let a = run 1 and b = run 2 in
  Alcotest.(check bool) "rdrand differed" true (a.Cpu.regs.(5) <> b.Cpu.regs.(5));
  Alcotest.(check int) "rcb identical" a.Cpu.pmu.Pmu.rcb b.Cpu.pmu.Pmu.rcb

let test_insn_encode_roundtrip () =
  let cases =
    [ Insn.Nop;
      Insn.Syscall;
      Insn.Ret;
      Insn.Pause;
      Insn.Mov (3, Insn.Imm 1234);
      Insn.Alu (Insn.Add, 7, Insn.Imm 9);
      Insn.Jcc (Insn.Ne, 2, Insn.Imm 0, 0x4242);
      Insn.Jmp 0x1234 ]
  in
  List.iter
    (fun insn ->
      match Insn.encode insn with
      | None -> Alcotest.failf "unencodable: %a" Insn.pp insn
      | Some w -> (
        match Insn.decode w with
        | Some insn' when insn' = insn -> ()
        | Some insn' ->
          Alcotest.failf "roundtrip %a -> %a" Insn.pp insn Insn.pp insn'
        | None -> Alcotest.failf "undecodable: %a" Insn.pp insn))
    cases;
  Alcotest.(check bool) "unencodable refused" true
    (Insn.encode (Insn.Cas (1, 2, 3, 4)) = None)

let qcheck_entropy_range =
  QCheck.Test.make ~name:"entropy range stays in bounds" ~count:500
    QCheck.(pair small_int (pair small_int small_int))
    (fun (seed, (a, b)) ->
      let lo = min a b and hi = max a b in
      let e = Entropy.create seed in
      let v = Entropy.range e lo hi in
      v >= lo && v <= hi)

let qcheck_mem_roundtrip =
  QCheck.Test.make ~name:"memory u64 write/read roundtrip" ~count:300
    QCheck.(pair (int_bound 16300) int)
    (fun (off, v) ->
      let space = Addr_space.create ~id:1 in
      ignore (Addr_space.map space ~addr:0x4000 ~len:(4 * 4096 + 4096) ~prot:Mem.prot_rw ());
      Addr_space.write_u64 space (0x4000 + off) v;
      Addr_space.read_u64 space (0x4000 + off) = v)

let qcheck_bytes_roundtrip =
  QCheck.Test.make ~name:"memory bytes blit roundtrip" ~count:200
    QCheck.(pair (int_bound 8000) (string_of_size Gen.(0 -- 600)))
    (fun (off, s) ->
      let space = Addr_space.create ~id:1 in
      ignore (Addr_space.map space ~addr:0 ~len:16384 ~prot:Mem.prot_rw ());
      Addr_space.write_bytes space off (Bytes.of_string s);
      Bytes.to_string (Addr_space.read_bytes space off (String.length s)) = s)

(* Program-level determinism: a random straight-line program over a
   scratch page produces identical machine state on every run — the
   bedrock assumption of record and replay ("CPUs are mostly
   deterministic", §2.1). *)
let random_program_gen =
  QCheck.Gen.(
    let op =
      oneofl [ Insn.Add; Insn.Sub; Insn.Mul; Insn.And; Insn.Or; Insn.Xor ]
    in
    let insn =
      oneof
        [ map2 (fun r v -> Asm.movi r (v land 0xffff)) (int_bound 12) int;
          map3 (fun o r v -> Asm.I (Insn.Alu (o, r, Insn.Imm ((v land 0xff) + 1))))
            op (int_bound 12) int;
          map2 (fun r s -> Asm.I (Insn.Alu (Insn.Add, r, Insn.Reg s)))
            (int_bound 12) (int_bound 12);
          map2 (fun r off -> Asm.store r 14 (off land 0xff0))
            (int_bound 12) int;
          map2 (fun r off -> Asm.load r 14 (off land 0xff0))
            (int_bound 12) int ]
    in
    map (fun l -> Asm.movi 14 0x4000 :: (l @ [ Asm.I Insn.Halt ]))
      (list_size (1 -- 60) insn))

let qcheck_program_determinism =
  QCheck.Test.make ~name:"straight-line programs are deterministic" ~count:150
    (QCheck.make random_program_gen) (fun items ->
      let run () =
        let ctx = run_program items in
        ( Array.to_list (Cpu.copy_regs ctx),
          Bytes.to_string
            (Addr_space.read_bytes ~force:true ctx.Cpu.space 0x4000 4096),
          Pmu.snapshot ctx.Cpu.pmu )
      in
      run () = run ())

let qcheck_rcb_equals_jcc_retired =
  QCheck.Test.make ~name:"RCB = retired conditional branches exactly"
    ~count:100
    QCheck.(int_range 1 500)
    (fun n ->
      (* a loop of n iterations with exactly one Jcc: rcb must be n *)
      let ctx =
        run_program
          [ Asm.movi 1 n;
            Asm.label "l";
            Asm.subi 1 1;
            Asm.jnz 1 "l";
            Asm.I Insn.Halt ]
      in
      ctx.Cpu.pmu.Pmu.rcb = n)

let suites =
  [ ( "isa.asm",
      [ Alcotest.test_case "labels" `Quick test_assemble_labels;
        Alcotest.test_case "duplicate label" `Quick test_assemble_duplicate;
        Alcotest.test_case "undefined label" `Quick test_assemble_undefined ] );
    ( "isa.mem",
      [ Alcotest.test_case "read/write" `Quick test_mem_rw;
        Alcotest.test_case "unmapped faults" `Quick test_mem_unmapped;
        Alcotest.test_case "protection" `Quick test_mem_prot;
        Alcotest.test_case "COW fork" `Quick test_mem_cow_fork;
        Alcotest.test_case "mprotect keeps region prots unshared" `Quick
          test_region_prot_unshared;
        Alcotest.test_case "PSS sharing" `Quick test_pss_sharing;
        QCheck_alcotest.to_alcotest qcheck_cow_model;
        Alcotest.test_case "fork_checkpoint costs a word a page" `Quick
          test_fork_checkpoint_words;
        QCheck_alcotest.to_alcotest qcheck_mem_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_bytes_roundtrip ] );
    ( "isa.cpu",
      [ Alcotest.test_case "arith loop" `Quick test_cpu_arith_loop;
        Alcotest.test_case "rcb counts conditionals only" `Quick
          test_cpu_rcb_counts_conditional_only;
        Alcotest.test_case "call/ret" `Quick test_cpu_call_ret_stack;
        Alcotest.test_case "cas success" `Quick test_cpu_cas;
        Alcotest.test_case "cas failure" `Quick test_cpu_cas_failure_loads_current;
        Alcotest.test_case "div by zero" `Quick test_cpu_div_zero_faults;
        Alcotest.test_case "breakpoint" `Quick test_cpu_breakpoint;
        Alcotest.test_case "single-step" `Quick test_cpu_singlestep;
        Alcotest.test_case "retires without allocating" `Quick
          test_cpu_retires_without_allocating;
        Alcotest.test_case
          "a run whose only effect is a store moves the generation and \
           tells the observer"
          `Quick test_cpu_store_moves_generation;
        Alcotest.test_case "emit + run jitted code" `Quick test_cpu_emit_jit;
        Alcotest.test_case "emit marks written text" `Quick
          test_emit_marks_written_text ] );
    ( "isa.text",
      [ Alcotest.test_case "breakpoint on a just-fetched address" `Quick
          test_bkpt_on_just_fetched;
        Alcotest.test_case "emit over a just-fetched address" `Quick
          test_emit_over_just_fetched;
        Alcotest.test_case "fork isolates text both ways" `Quick
          test_fork_isolates_text;
        Alcotest.test_case "unmap_all drops fetched text" `Quick
          test_unmap_all_drops_fetched_text;
        Alcotest.test_case "text_fold is ascending" `Quick
          test_text_fold_ascending;
        Alcotest.test_case "workload code gets word tags" `Quick
          test_workloads_get_word_tags;
        Alcotest.test_case "a text page costs by its slots" `Quick
          test_text_costs_its_slots;
        QCheck_alcotest.to_alcotest qcheck_paged_fetch_sliced;
        QCheck_alcotest.to_alcotest qcheck_cpu_matches_ref;
        Alcotest.test_case "reference cases draw every tag" `Quick
          test_ref_tag_counts ] );
    ( "isa.pmu",
      [ Alcotest.test_case "interrupt fires late (skid)" `Quick
          test_pmu_interrupt_fires_with_skid;
        Alcotest.test_case "rcb deterministic across entropy" `Quick
          test_pmu_rcb_deterministic ] );
    ( "isa.insn",
      [ Alcotest.test_case "encode/decode roundtrip" `Quick
          test_insn_encode_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_entropy_range ] );
    ( "isa.determinism",
      [ QCheck_alcotest.to_alcotest qcheck_program_determinism;
        QCheck_alcotest.to_alcotest qcheck_rcb_equals_jcc_retired ] ) ]
