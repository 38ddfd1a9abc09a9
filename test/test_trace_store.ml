(* Tests for the chunk-indexed trace store: the versioned on-disk
   format, the lazy Reader cursor, and checkpoint re-seeking. *)

module W = Workload

let small_cp () = Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 64 } ()

let small_make () =
  Wl_make.make
    ~params:{ Wl_make.jobs = 2; compiles = 4; src_kb = 8; compile_work = 2_000 }
    ()

let with_temp_file f =
  let path = Filename.temp_file "rrtrace" ".trace" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path)

(* A synthetic frame stream bulky enough to span many chunks under a
   small [chunk_limit]. *)
let synth_event i =
  match i mod 4 with
  | 0 ->
    Event.E_sched
      { tid = 100 + (i mod 3);
        point =
          { Event.rcb = i * 7;
            point_regs = Array.init 17 (fun r -> (r * i) + 13);
            stack_extra = i } }
  | 1 ->
    Event.E_syscall
      { tid = 100;
        nr = Sysno.read;
        site = 0x1000 + i;
        writable_site = false;
        via_abort = false;
        regs_after = Array.init 17 (fun r -> r + i);
        writes = [ { Event.addr = 0x4000 + i; data = String.make 40 'x' } ];
        kind = Event.K_emulate }
  | 2 -> Event.E_insn_trap { tid = 100; reg = i mod 16; value = i * i }
  | _ -> Event.E_checksum { tid = 100; value = i * 31 }

let synth_trace ?(n = 400) ?(chunk_limit = 512) () =
  let w = Trace.Writer.create ~chunk_limit ~initial_exe:"/bin/x" () in
  for i = 0 to n - 1 do
    ignore (Trace.Writer.event w (synth_event i))
  done;
  Trace.Writer.finish w

(* The records of a saved file up to and including the trailer: the
   magic, then [tag, uvarint length, payload, crc32] records.  Each is
   (tag, payload offset, payload length). *)
let records data =
  let rec uvarint p shift acc =
    let b = Char.code data.[p] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, p + 1) else uvarint (p + 1) (shift + 7) acc
  in
  let rec go pos acc =
    let len, body = uvarint (pos + 1) 0 0 in
    let acc = (data.[pos], body, len) :: acc in
    if data.[pos] = 'T' then List.rev acc else go (body + len + 4) acc
  in
  go 8 []

(* ---- the chunk index and cursor ------------------------------------- *)

let test_multi_chunk_index () =
  let t = synth_trace () in
  let index = Trace.chunk_index t in
  Alcotest.(check bool)
    (Printf.sprintf "many chunks (%d)" (Array.length index))
    true
    (Array.length index >= 8);
  (* Index entries tile the frame range contiguously. *)
  let next = ref 0 in
  Array.iter
    (fun ci ->
      Alcotest.(check int) "contiguous first_frame" !next ci.Trace.first_frame;
      next := !next + ci.Trace.n_frames)
    index;
  Alcotest.(check int) "index covers all frames" (Trace.n_events t) !next

let test_seek_agrees_with_sequential () =
  let t = synth_trace () in
  let all = Trace.Reader.to_array t in
  let c = Trace.Reader.open_ t in
  let rng = Random.State.make [| 42 |] in
  for _ = 1 to 200 do
    let i = Random.State.int rng (Array.length all) in
    Trace.Reader.seek c i;
    Alcotest.(check int) "pos after seek" i (Trace.Reader.pos c);
    if Trace.Reader.next c <> all.(i) then
      Alcotest.failf "frame %d differs between seek and sequential decode" i
  done;
  (* Cursor walk from a seek point continues in order. *)
  Trace.Reader.seek c (Array.length all - 5);
  for i = Array.length all - 5 to Array.length all - 1 do
    if Trace.Reader.next c <> all.(i) then Alcotest.failf "tail frame %d" i
  done;
  Alcotest.(check bool) "at_end" true (Trace.Reader.at_end c);
  Alcotest.(check (option reject)) "peek at end" None (Trace.Reader.peek c)

let test_reader_decodes_lazily () =
  let t = synth_trace () in
  let n_chunks = Array.length (Trace.chunk_index t) in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let loaded = Trace.open_exn path in
      Alcotest.(check int) "load inflates no chunk" 0
        (Trace.decoded_chunks loaded);
      ignore (Trace.Reader.frame loaded 0);
      Alcotest.(check int) "first access decodes one chunk" 1
        (Trace.decoded_chunks loaded);
      ignore (Trace.Reader.frame loaded (Trace.n_events loaded - 1));
      Alcotest.(check int) "far seek decodes one more chunk" 2
        (Trace.decoded_chunks loaded);
      (* LRU: re-reading the same frames decodes nothing new. *)
      ignore (Trace.Reader.frame loaded 0);
      ignore (Trace.Reader.frame loaded (Trace.n_events loaded - 1));
      Alcotest.(check int) "cache hits decode nothing" 2
        (Trace.decoded_chunks loaded);
      Alcotest.(check bool) "trace really is multi-chunk" true (n_chunks > 2))

let test_kind_mask_skips_chunks () =
  (* One lone E_patch frame near the end: a masked search must not
     inflate the all-sched chunks before it. *)
  let w = Trace.Writer.create ~chunk_limit:512 ~initial_exe:"/bin/x" () in
  for i = 0 to 299 do
    ignore (Trace.Writer.event w (synth_event (4 * i)))
  done;
  ignore (Trace.Writer.event w (Event.E_patch { tid = 100; site = 0xbeef }));
  let t = Trace.Writer.finish w in
  let mask = Event.kind_bit (Event.E_patch { tid = 0; site = 0 }) in
  let found =
    Trace.Reader.find_from ~kind_mask:mask t 0 (function
      | Event.E_patch _ -> true
      | _ -> false)
  in
  Alcotest.(check (option int)) "patch found" (Some 300) found;
  Alcotest.(check int) "only the patch chunk was inflated" 1
    (Trace.decoded_chunks t)

(* ---- on-disk format -------------------------------------------------- *)

let test_save_load_roundtrip_synthetic () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let loaded = Trace.open_exn path in
      Alcotest.(check int) "frame count" (Trace.n_events t)
        (Trace.n_events loaded);
      Alcotest.(check int) "chunk count"
        (Array.length (Trace.chunk_index t))
        (Array.length (Trace.chunk_index loaded));
      Alcotest.(check bool) "frames identical" true
        (Trace.Reader.to_array t = Trace.Reader.to_array loaded))

let replay_workload_roundtrip mk =
  let recd, _ = W.record (mk ()) in
  with_temp_file (fun path ->
      Trace.save_exn recd.W.trace path;
      let loaded = Trace.open_exn path in
      let pstats, _ = Replayer.replay loaded in
      Alcotest.(check (option int)) "loaded trace replays to the same exit"
        recd.W.rec_stats.Recorder.exit_status pstats.Replayer.exit_status)

let test_save_load_replay_cp () = replay_workload_roundtrip small_cp
let test_save_load_replay_make () = replay_workload_roundtrip small_make

let check_format_error what f =
  match f () with
  | exception Trace.Format_error e ->
    let msg = Trace.error_to_string e in
    Alcotest.(check bool)
      (what ^ " error is descriptive: " ^ msg)
      true
      (String.length msg > 0)
  | _ -> Alcotest.failf "%s was accepted" what

let test_load_rejects_bad_magic () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "NOTATRACE-at-all-really";
      close_out oc;
      check_format_error "bad magic" (fun () -> Trace.open_exn path))

(* Both entry points must report a version skew as such: [found] is
   what the file carries, [expected] the one header version this build
   reads. *)
let check_skew what ~found path =
  let check via = function
    | Error (Trace.Version_skew { found = f; expected; _ }) ->
      Alcotest.(check (pair int int)) (what ^ " via " ^ via) (found, 4)
        (f, expected)
    | Error e ->
      Alcotest.failf "%s via %s: wrong error: %s" what via
        (Trace.error_to_string e)
    | Ok _ -> Alcotest.failf "%s via %s was accepted" what via
  in
  check "open" (Trace.open_ path);
  check "salvage" (Trace.salvage path)

let test_load_rejects_old_version () =
  List.iter
    (fun (magic, found) ->
      with_temp_file (fun path ->
          let oc = open_out_bin path in
          output_string oc magic;
          output_string oc (String.make 64 '\x00');
          close_out oc;
          check_skew magic ~found path))
    [ ("RRTRACE1", 1); ("RRTRACE2", 2) ]

(* A saved trace whose header record carries another version — 3, the
   plain-register encoding, and 5, a future one — with the record's CRC
   recomputed, so only the version is wrong. *)
let test_load_rejects_future_version () =
  let t = synth_trace () in
  List.iter
    (fun version ->
      with_temp_file (fun path ->
          Trace.save_exn t path;
          let b =
            Bytes.of_string (In_channel.with_open_bin path In_channel.input_all)
          in
          (* The header record follows the 8-byte magic: tag 'H', a
             one-byte length, then the payload, whose first byte is the
             version. *)
          Alcotest.(check char) "header record" 'H' (Bytes.get b 8);
          let len = Char.code (Bytes.get b 9) in
          Alcotest.(check int) "current version" 4 (Char.code (Bytes.get b 10));
          Bytes.set b 10 (Char.chr version);
          let crc =
            Crc32.string ~crc:(Crc32.string "H") (Bytes.sub_string b 10 len)
          in
          Bytes.set_int32_le b (10 + len) (Int32.of_int crc);
          Out_channel.with_open_bin path (fun oc ->
              Out_channel.output_bytes oc b);
          check_skew (Printf.sprintf "header version %d" version) ~found:version
            path))
    [ 3; 5 ]

let test_load_rejects_truncation () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      (* Cut the file at several depths: mid-magic, mid-length,
         mid-payload.  Every cut must fail cleanly, never crash. *)
      List.iter
        (fun keep ->
          let oc = open_out_bin path in
          output_string oc (String.sub full 0 keep);
          close_out oc;
          check_format_error
            (Printf.sprintf "truncation at %d" keep)
            (fun () -> Trace.open_exn path))
        [ 4; 12; 40; String.length full / 2; String.length full - 1 ])

let test_corrupt_chunk_detected_lazily () =
  let t = synth_trace () in
  let original = Trace.Reader.to_array t in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let full =
        In_channel.with_open_bin path In_channel.input_all
      in
      (* Flip single bytes at several depths in the chunk stream.  The
         index stays valid, so open succeeds; the damage must surface as
         a Format_error when the covering chunk is decoded (a flip can
         also land in deflate padding bits and change nothing — that is
         why several offsets are probed and one detection suffices). *)
      let detected = ref 0 in
      List.iter
        (fun frac ->
          let b = Bytes.of_string full in
          let off = Bytes.length b * frac / 10 in
          Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0xff));
          let oc = open_out_bin path in
          output_bytes oc b;
          close_out oc;
          match Trace.open_exn path with
          | exception Trace.Format_error _ -> incr detected
          | loaded -> (
            match Trace.Reader.to_array loaded with
            | exception Trace.Format_error _ -> incr detected
            | frames -> if frames <> original then incr detected))
        [ 3; 4; 5; 6; 7; 8; 9 ];
      Alcotest.(check bool)
        (Printf.sprintf "corruption detected (%d/7 flips)" !detected)
        true (!detected >= 5))

(* ---- durability: versions, integrity, salvage ------------------------ *)

let test_v3_integrity_flag () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let loaded = Trace.open_exn path in
      Array.iter
        (fun ci ->
          if ci.Trace.crc32 = 0 then Alcotest.fail "chunk without a CRC")
        (Trace.chunk_index loaded))

let test_salvage_intact () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      match Trace.salvage path with
      | Error e ->
        Alcotest.failf "salvage of an intact trace failed: %s"
          (Trace.error_to_string e)
      | Ok (s, report) ->
        Alcotest.(check bool) "committed" true report.Trace.sr_committed;
        Alcotest.(check (option string)) "no damage" None
          report.Trace.sr_damage;
        Alcotest.(check int) "all chunks recovered"
          (Array.length (Trace.chunk_index t))
          report.Trace.sr_chunks_recovered;
        Alcotest.(check bool) "frames identical" true
          (Trace.Reader.to_array t = Trace.Reader.to_array s))

let test_salvage_truncated_prefix () =
  let t = synth_trace () in
  let original = Trace.Reader.to_array t in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let full = In_channel.with_open_bin path In_channel.input_all in
      List.iter
        (fun frac ->
          let cut = String.length full * frac / 10 in
          let oc = open_out_bin path in
          output_string oc (String.sub full 0 cut);
          close_out oc;
          match Trace.salvage path with
          | Error e ->
            Alcotest.failf "cut at %d unsalvageable: %s" cut
              (Trace.error_to_string e)
          | Ok (s, report) ->
            Alcotest.(check bool) "footer gone: uncommitted" false
              report.Trace.sr_committed;
            let frames = Trace.Reader.to_array s in
            Alcotest.(check bool) "no more frames than the original" true
              (Array.length frames <= Array.length original);
            Array.iteri
              (fun i e ->
                if e <> original.(i) then
                  Alcotest.failf "cut at %d: frame %d differs" cut i)
              frames)
        [ 3; 5; 8 ])

(* One saved synthetic trace under each class of damage.  Every case
   is read through a reader named "t", so the messages are fixed. *)
let damaged_files () =
  let buf = Buffer.create 65536 in
  (match Trace.save_io (synth_trace ()) (Io.buffer_writer buf) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "save: %a" Trace.pp_error e);
  let data = Buffer.contents buf in
  let n = String.length data in
  let recs = records data in
  let edit f =
    let b = Bytes.of_string data in
    f b;
    Bytes.to_string b
  in
  let flip b i bits =
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor bits))
  in
  let reader s () = Io.string_reader ~path:"t" s in
  [ ("no footer", reader (String.sub data 0 (n - 16)));
    ("foreign magic", reader ("NOTATRAC" ^ String.sub data 8 (n - 8)));
    ("RRTRACE2", reader ("RRTRACE2" ^ String.sub data 8 (n - 8)));
    ( "chunk 3's stored bytes flipped",
      reader
        (edit (fun b ->
             let _, body, len =
               List.nth (List.filter (fun (tag, _, _) -> tag = 'C') recs) 3
             in
             flip b (body + (len / 2)) 0x10)) );
    ( "trailer disagrees with the stream",
      (* Bit 0 of chunk 0's kinds in the trailer's index, which follows
         the nine stats fields and the list length; the record's CRC is
         recomputed, so only the index is wrong. *)
      reader
        (edit (fun b ->
             let _, body, len = List.nth recs (List.length recs - 1) in
             let s = Codec.source (String.sub data body len) in
             for _ = 1 to 9 + 1 + 4 do
               ignore (Codec.get_uvarint s)
             done;
             flip b (body + Codec.pos s) 1;
             let crc =
               Crc32.string ~crc:(Crc32.string "T")
                 (Bytes.sub_string b body len)
             in
             Bytes.set_int32_le b (body + len) (Int32.of_int crc))) );
    ( "failing reader",
      fun () -> Io.inject_reader [ Io.Read_fail_at 100 ] (reader data ()) ) ]

let describe_error = function
  | Trace.Truncated _ -> "Truncated"
  | Trace.Bad_magic _ -> "Bad_magic"
  | Trace.Version_skew { found; _ } -> Printf.sprintf "Version_skew %d" found
  | Trace.Chunk_crc k -> Printf.sprintf "Chunk_crc %d" k
  | Trace.Corrupt _ -> "Corrupt"
  | Trace.Io _ -> "Io"

(* For each damage class: the variant and message [open_] returns, and
   the chunks, frames, commit flag and damage [salvage] reports (or its
   error). *)
let damage_table_expected =
  [ ( "no footer",
      ( "Truncated: t: truncated trace file (missing commit footer (writer \
         did not finish))",
        "25 chunks, 400 frames, uncommitted, intact" ) );
    ( "foreign magic",
      ( "Bad_magic: t: not an rr trace file (bad magic)",
        "Bad_magic: t: not an rr trace file (bad magic)" ) );
    ( "RRTRACE2",
      ( "Version_skew 2: t: trace format version 2, this build reads 4",
        "Version_skew 2: t: trace format version 2, this build reads 4" ) );
    ( "chunk 3's stored bytes flipped",
      ( "Chunk_crc 3: chunk 3 failed CRC verification",
        "3 chunks, 50 frames, committed, byte 1205: record 'C' failed CRC" ) );
    ( "trailer disagrees with the stream",
      ( "Corrupt: t: corrupt trace file (trailer disagrees with stream on \
         chunk 0)",
        "25 chunks, 400 frames, committed, intact" ) );
    ( "failing reader",
      ( "Io: t: read failed: read error after 100 bytes",
        "Io: t: read failed: read error after 100 bytes" ) ) ]

let test_damage_table () =
  let outcome (what, mk) =
    let opened =
      match Trace.open_io (mk ()) with
      | Ok _ -> "opened"
      | Error e -> describe_error e ^ ": " ^ Trace.error_to_string e
    in
    let salvaged =
      match Trace.salvage_io (mk ()) with
      | Ok (_, r) ->
        Printf.sprintf "%d chunks, %d frames, %s, %s"
          r.Trace.sr_chunks_recovered r.Trace.sr_frames_recovered
          (if r.Trace.sr_committed then "committed" else "uncommitted")
          (Option.value r.Trace.sr_damage ~default:"intact")
      | Error e -> describe_error e ^ ": " ^ Trace.error_to_string e
    in
    (what, (opened, salvaged))
  in
  let got = List.map outcome (damaged_files ()) in
  Alcotest.(check (list (pair string (pair string string))))
    "open_ and salvage on each damage class" damage_table_expected got

(* Crash recovery end to end: save a recording, cut the file at three
   offsets inside its record stream, and require every cut to salvage
   into a prefix of the original that replays.  The cuts land 35% into
   the body, one byte before the trailer (the record before it is torn)
   and at the trailer (every record intact, the commit gone: what a
   writer killed between its last flush and finish leaves).
   sambatest's file holds a header, an image, one chunk and a trailer;
   htmltest's adds a 'D' record, so a chunk written ahead of the file
   data it references would survive the first cut without it and fail
   to replay. *)
let test_cut_files_salvage_and_replay () =
  List.iter
    (fun (name, mk) ->
      let recd, _ = W.record (mk ()) in
      let original = Trace.Reader.to_array recd.W.trace in
      with_temp_file (fun path ->
          Trace.save_exn recd.W.trace path;
          let data = In_channel.with_open_bin path In_channel.input_all in
          let len = String.length data in
          let body = Int64.to_int (String.get_int64_le data (len - 16)) in
          List.iter
            (fun cut ->
              Out_channel.with_open_bin path (fun oc ->
                  Out_channel.output_string oc (String.sub data 0 cut));
              match Trace.salvage path with
              | Error e ->
                Alcotest.failf "%s cut at %d: unsalvageable: %a" name cut
                  Trace.pp_error e
              | Ok (t, _) ->
                let frames = Trace.Reader.to_array t in
                let n = Array.length frames in
                if n > Array.length original
                   || frames <> Array.sub original 0 n
                then Alcotest.failf "%s cut at %d: not a prefix" name cut;
                if n > 0 then
                  match Replayer.replay t with
                  | st, _ ->
                    Alcotest.(check int)
                      (Printf.sprintf "%s cut at %d: replays every frame" name
                         cut)
                      n st.Replayer.events_applied
                  | exception e ->
                    Alcotest.failf "%s cut at %d: replay raised %s" name cut
                      (Printexc.to_string e))
            [ max 9 (35 * body / 100); body - 1; body ]))
    [ ("sambatest", fun () -> Wl_samba.make ());
      ("htmltest", fun () -> Wl_htmltest.make ()) ]

let test_restore_rejects_mismatched_trace () =
  let recd, _ = W.record (small_cp ()) in
  let trace = recd.W.trace in
  let r = Replayer.start trace in
  let third = Trace.n_events trace / 3 in
  while Replayer.cursor_index r < third do
    ignore (Replayer.step r)
  done;
  let snap = Replayer.snapshot r in
  let other = synth_trace () in
  match Replayer.restore other snap with
  | Error e ->
    Alcotest.(check bool) "mismatch is descriptive" true
      (String.length (Snapshot.restore_error_to_string e) > 0)
  | Ok _ -> Alcotest.fail "restore accepted a mismatched trace"

(* ---- checkpoints over the cursor ------------------------------------- *)

let test_checkpoint_restore_after_seek () =
  let recd, _ = W.record (small_cp ()) in
  let trace = recd.W.trace in
  let r = Replayer.start trace in
  let third = Trace.n_events trace / 3 in
  while Replayer.cursor_index r < third do
    ignore (Replayer.step r)
  done;
  let snap = Replayer.snapshot r in
  while not (Replayer.at_end r) do
    ignore (Replayer.step r)
  done;
  let full = Replayer.stats_of r in
  (* Restore re-seeks the trace cursor through the chunk index and the
     replay must land on the identical exit. *)
  let r2 = Replayer.restore_exn trace snap in
  Alcotest.(check int) "restored cursor position" third
    (Replayer.cursor_index r2);
  while not (Replayer.at_end r2) do
    ignore (Replayer.step r2)
  done;
  Alcotest.(check (option int)) "restored replay reaches the same exit"
    full.Replayer.exit_status (Replayer.stats_of r2).Replayer.exit_status

(* ---- streamed file deltas --------------------------------------------- *)

(* The number of 'D' records in a record stream. *)
let count_file_records data =
  List.length (List.filter (fun (tag, _, _) -> tag = 'D') (records data))

(* 64 appends to one file, some past its end, each followed by frames
   until a 256-byte chunk seals: the writer streams one suffix delta per
   append, and the file sink's reader and the ring rebuild the same
   file.  [after_seal] sees the file's length after each seal. *)
let record_appends ?(after_seal = fun _ -> ()) sink =
  let w =
    Trace.Writer.create ~chunk_limit:256 ~sink ~initial_exe:"/bin/x" ()
  in
  let expected = Buffer.create 4096 in
  for i = 0 to 63 do
    let gap = i mod 3 * 512 in
    Buffer.add_string expected (String.make gap '\000');
    let data =
      String.init (100 + (37 * i)) (fun j -> Char.chr ((i + j) land 0xff))
    in
    Trace.Writer.append_file w ~path:"cloned/1" ~cloned:true
      ~off:(Buffer.length expected) data;
    Buffer.add_string expected data;
    let rec seal pending =
      if pending < 256 then
        seal (pending + Trace.Writer.event w (synth_event i))
    in
    seal 0;
    after_seal (Buffer.length expected)
  done;
  (match
     Trace.Writer.append_file w ~path:"cloned/1" ~cloned:true ~off:0 "x"
   with
  | () -> Alcotest.fail "append below the file's length accepted"
  | exception Invalid_argument _ -> ());
  let t = Trace.Writer.finish w in
  Alcotest.(check (list (pair string string)))
    "writer holds the appended bytes, gaps zero-filled"
    [ ("cloned/1", Buffer.contents expected) ]
    (Trace.files t);
  t

let test_appended_file_streams_as_deltas () =
  let buf = Buffer.create 65536 in
  let t = record_appends (Trace.Sink.of_io (Io.buffer_writer buf)) in
  let data = Buffer.contents buf in
  Alcotest.(check int) "file sink: one 'D' record per append" 64
    (count_file_records data);
  (match Trace.open_io (Io.string_reader data) with
  | Ok reopened ->
    Alcotest.(check (list (pair string string)))
      "open_io rebuilds the writer's files" (Trace.files t)
      (Trace.files reopened)
  | Error e -> Alcotest.failf "reopen: %a" Trace.pp_error e);
  let ring = Trace.ring ~chunks:4 in
  let seen = ref [] in
  let windowed =
    record_appends (Trace.ring_sink ring) ~after_seal:(fun len ->
        let window, _ = Trace.ring_trace ring in
        seen :=
          (len, String.length (List.assoc "cloned/1" (Trace.files window)))
          :: !seen)
  in
  List.iter
    (fun (len, got) ->
      Alcotest.(check int) "ring holds the file as of the last seal" len got)
    !seen;
  Alcotest.(check int) "ring: 64 deltas applied" 64 (List.length !seen);
  Alcotest.(check (list (pair string string)))
    "ring_trace rebuilds the writer's files" (Trace.files t)
    (Trace.files windowed)

(* A guest that maps an empty regular file, so the recorder snapshots a
   0-byte files/0.  Every streaming sink must carry it: replay maps it
   again. *)
let empty_mmap_setup k =
  let vfs = Kernel.vfs k in
  Vfs.mkdir_p vfs "/bin";
  ignore (Vfs.create_file vfs "/empty");
  let b = Guest.create () in
  Guest.emit b
    (Guest.sys_open b ~path:"/empty" ~flags:Sysno.o_rdonly
    @ [ Asm.movr 8 0 ]
    @ Guest.sc Sysno.mmap
        [ Guest.imm 0; Guest.imm 4096; Guest.imm Mem.prot_r; Guest.imm 0;
          Guest.reg 8; Guest.imm 0 ]
    @ Guest.sys_exit_group 7);
  Kernel.install_image k ~path:"/bin/t" (Guest.build b ~name:"t" ())

(* Every destination builds the trace the in-memory recording holds:
   the same chunk index, all six fields of each entry, the same images
   and the same files — and so does [save] followed by [open_]. *)
let test_empty_file_streams () =
  let record sink =
    match
      Recorder.run ~opts:(Recorder.make_opts ~sink ()) ~setup:empty_mmap_setup
        ~exe:"/bin/t" ()
    with
    | Ok (t, _, _) -> t
    | Error e -> Alcotest.failf "recording failed: %a" Recorder.pp_error e
  in
  let index t =
    Array.to_list
      (Array.map
         (fun (ci : Trace.chunk_info) ->
           Printf.sprintf "frames %d+%d, bytes %d+%d, kinds %x, crc %08x"
             ci.first_frame ci.n_frames ci.byte_offset ci.stored_len ci.kinds
             ci.crc32)
         (Trace.chunk_index t))
  in
  let memory = record Recorder.Sink_memory in
  let check what t =
    Alcotest.(check (option string))
      (what ^ ": files/0 is empty") (Some "")
      (List.assoc_opt "files/0" (Trace.files t));
    Alcotest.(check (list string))
      (what ^ ": chunk index") (index memory) (index t);
    Alcotest.(check bool)
      (what ^ ": images") true
      (Trace.images t = Trace.images memory);
    Alcotest.(check (list (pair string string)))
      (what ^ ": files") (Trace.files memory) (Trace.files t);
    let st, _ = Replayer.replay t in
    Alcotest.(check (option int))
      (what ^ ": replays to exit 7") (Some 7) st.Replayer.exit_status
  in
  with_temp_file (fun path ->
      let reopen what =
        match Trace.open_ path with
        | Ok t -> check what t
        | Error e -> Alcotest.failf "%s: reopen: %a" what Trace.pp_error e
      in
      Trace.save_exn memory path;
      reopen "save + open_";
      ignore (record (Recorder.Sink_io (Io.file_writer path)));
      reopen "file sink");
  let ring = Trace.ring ~chunks:64 in
  ignore (record (Recorder.Sink_ring ring));
  check "ring" (fst (Trace.ring_trace ring))

let suites =
  [ ( "trace.store",
      [ Alcotest.test_case "multi-chunk index" `Quick test_multi_chunk_index;
        Alcotest.test_case "seek agrees with sequential decode" `Quick
          test_seek_agrees_with_sequential;
        Alcotest.test_case "lazy chunk decoding + LRU" `Quick
          test_reader_decodes_lazily;
        Alcotest.test_case "kind mask skips chunks" `Quick
          test_kind_mask_skips_chunks;
        Alcotest.test_case "appended file streams as deltas" `Quick
          test_appended_file_streams_as_deltas;
        Alcotest.test_case "empty file streams through every sink" `Quick
          test_empty_file_streams ] );
    ( "trace.format",
      [ Alcotest.test_case "save/load roundtrip" `Quick
          test_save_load_roundtrip_synthetic;
        Alcotest.test_case "cp trace replays after save/load" `Quick
          test_save_load_replay_cp;
        Alcotest.test_case "make trace replays after save/load" `Quick
          test_save_load_replay_make;
        Alcotest.test_case "bad magic rejected" `Quick
          test_load_rejects_bad_magic;
        Alcotest.test_case "v1 traces rejected" `Quick
          test_load_rejects_old_version;
        Alcotest.test_case "future version rejected" `Quick
          test_load_rejects_future_version;
        Alcotest.test_case "truncation rejected" `Quick
          test_load_rejects_truncation;
        Alcotest.test_case "corrupt chunk detected lazily" `Quick
          test_corrupt_chunk_detected_lazily ] );
    ( "trace.durability",
      [ Alcotest.test_case "v3 traces load crc-checked" `Quick
          test_v3_integrity_flag;
        Alcotest.test_case "salvage of an intact trace is lossless" `Quick
          test_salvage_intact;
        Alcotest.test_case "salvage of a truncated trace is a prefix" `Quick
          test_salvage_truncated_prefix;
        Alcotest.test_case "every damage class is typed" `Quick
          test_damage_table;
        Alcotest.test_case "cut files salvage and replay" `Quick
          test_cut_files_salvage_and_replay;
        Alcotest.test_case "restore rejects a mismatched trace" `Quick
          test_restore_rejects_mismatched_trace ] );
    ( "trace.checkpoint",
      [ Alcotest.test_case "restore re-seeks the cursor" `Quick
          test_checkpoint_restore_after_seek ] ) ]
