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
      let loaded = Trace.load_exn path in
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
      let loaded = Trace.load_exn path in
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
      let loaded = Trace.load_exn path in
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
      check_format_error "bad magic" (fun () -> Trace.load_exn path))

let test_load_rejects_old_version () =
  with_temp_file (fun path ->
      let oc = open_out_bin path in
      output_string oc "RRTRACE1";
      output_string oc (String.make 64 '\x00');
      close_out oc;
      check_format_error "format version 1" (fun () -> Trace.load_exn path))

let test_load_rejects_future_version () =
  with_temp_file (fun path ->
      let b = Codec.sink () in
      Codec.put_uvarint b 99;
      let payload = Buffer.contents b in
      let oc = open_out_bin path in
      output_string oc "RRTRACE2";
      let len = Bytes.create 8 in
      Bytes.set_int64_le len 0 (Int64.of_int (String.length payload));
      output_bytes oc len;
      output_string oc payload;
      close_out oc;
      check_format_error "future version" (fun () -> Trace.load_exn path))

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
            (fun () -> Trace.load_exn path))
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
          match Trace.load_exn path with
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

let test_v2_compat () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_v2 t path;
      let loaded = Trace.load_exn path in
      Alcotest.(check bool) "v2 loads flagged trusted" true
        (Trace.integrity loaded = `Trusted);
      Alcotest.(check bool) "frames identical" true
        (Trace.Reader.to_array t = Trace.Reader.to_array loaded))

let test_v3_integrity_flag () =
  let t = synth_trace () in
  with_temp_file (fun path ->
      Trace.save_exn t path;
      let loaded = Trace.load_exn path in
      Alcotest.(check bool) "v3 loads crc-checked" true
        (Trace.integrity loaded = `Crc_checked);
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
      (String.length (Replayer.restore_error_to_string e) > 0)
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

(* The number of 'D' records in a v3 record stream: the magic, then
   [tag, uvarint length, payload, crc32] records up to the trailer. *)
let count_file_records data =
  let rec uvarint p shift acc =
    let b = Char.code data.[p] in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then (acc, p + 1) else uvarint (p + 1) (shift + 7) acc
  in
  let rec go pos n =
    if data.[pos] = 'T' then n
    else begin
      let len, body = uvarint (pos + 1) 0 0 in
      go (body + len + 4) (if data.[pos] = 'D' then n + 1 else n)
    end
  in
  go 8 0

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
        seen := (len, String.length (Trace.file window "cloned/1")) :: !seen)
  in
  List.iter
    (fun (len, got) ->
      Alcotest.(check int) "ring holds the file as of the last seal" len got)
    !seen;
  Alcotest.(check int) "ring: 64 deltas applied" 64 (List.length !seen);
  Alcotest.(check (list (pair string string)))
    "ring_trace rebuilds the writer's files" (Trace.files t)
    (Trace.files windowed)

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
          test_appended_file_streams_as_deltas ] );
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
      [ Alcotest.test_case "v2 traces load as trusted" `Quick test_v2_compat;
        Alcotest.test_case "v3 traces load crc-checked" `Quick
          test_v3_integrity_flag;
        Alcotest.test_case "salvage of an intact trace is lossless" `Quick
          test_salvage_intact;
        Alcotest.test_case "salvage of a truncated trace is a prefix" `Quick
          test_salvage_truncated_prefix;
        Alcotest.test_case "restore rejects a mismatched trace" `Quick
          test_restore_rejects_mismatched_trace ] );
    ( "trace.checkpoint",
      [ Alcotest.test_case "restore re-seeks the cursor" `Quick
          test_checkpoint_restore_after_seek ] ) ]
