(* Fault-injection property tests for the crash-tolerant trace store.

   The contract under test (DESIGN.md §4e): for {e every} injected IO
   fault, the system ends in exactly one of three states —
   - byte-identical success (the fault landed past the data, or was
     harmless),
   - verified prefix salvage (the recovered frames are a prefix of the
     original stream), or
   - a typed {!Trace.error} naming the damage —
   and never a crash, hang, or silent divergence.

   Faults are seeded and deterministic ({!Io.inject} /
   {!Io.inject_reader}), so the whole matrix replays bit-identically. *)

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

let synth_trace ?(n = 300) ?(chunk_limit = 512) () =
  let w = Trace.Writer.create ~chunk_limit ~initial_exe:"/bin/x" () in
  for i = 0 to n - 1 do
    ignore (Trace.Writer.event w (synth_event i))
  done;
  Trace.Writer.finish w

(* The canonical on-disk bytes and frame stream everything is compared
   against. *)
let golden =
  lazy
    (let t = synth_trace () in
     let buf = Buffer.create 65536 in
     (match Trace.save_io t (Io.buffer_writer buf) with
     | Ok () -> ()
     | Error e -> failwith (Trace.error_to_string e));
     (Buffer.contents buf, Trace.Reader.to_array t))

let is_prefix_of ~original frames =
  Array.length frames <= Array.length original
  && (try
        Array.iteri
          (fun i e -> if e <> original.(i) then raise Exit)
          frames;
        true
      with Exit -> false)

(* One scenario: some (possibly damaged) byte string reaches the
   reader.  [mk_reader] builds a fresh reader each pass, re-applying any
   read-side fault plan.  Returns which of the three allowed outcomes
   happened; anything else fails the test. *)
let classify ~what ~original mk_reader =
  match Trace.open_io (mk_reader ()) with
  | Ok t ->
    let frames = Trace.Reader.to_array t in
    if frames = original then `Success
    else Alcotest.failf "%s: silent divergence on open" what
  | Error _open_err -> (
    match Trace.salvage_io (mk_reader ()) with
    | Ok (s, report) ->
      let frames = Trace.Reader.to_array s in
      if not (is_prefix_of ~original frames) then
        Alcotest.failf "%s: salvage returned a non-prefix (%d frames)" what
          (Array.length frames);
      if report.Trace.sr_frames_recovered <> Array.length frames then
        Alcotest.failf "%s: report/frames mismatch" what;
      `Salvaged
    | Error _e -> `Typed_error)
  | exception Trace.Format_error _ ->
    Alcotest.failf "%s: open_io raised instead of returning Error" what
  | exception e ->
    Alcotest.failf "%s: untyped exception %s" what (Printexc.to_string e)

(* Derive a deterministic read-side fault from a seed. *)
let read_fault rng len =
  let off = Random.State.int rng (len + (len / 10) + 1) in
  match Random.State.int rng 3 with
  | 0 -> Io.Read_truncate_at off
  | 1 -> Io.Read_bit_flip off
  | _ -> Io.Read_fail_at off

let write_fault rng len =
  let off = Random.State.int rng (len + (len / 10) + 1) in
  match Random.State.int rng 4 with
  | 0 -> Io.Write_enospc_after off
  | 1 -> Io.Write_crash_at off
  | 2 -> Io.Write_short_at off
  | _ -> Io.Write_bit_flip off

let pp_fault = function
  | Io.Write_enospc_after n -> Printf.sprintf "enospc@%d" n
  | Io.Write_crash_at n -> Printf.sprintf "wcrash@%d" n
  | Io.Write_short_at n -> Printf.sprintf "wshort@%d" n
  | Io.Write_bit_flip n -> Printf.sprintf "wflip@%d" n
  | Io.Read_truncate_at n -> Printf.sprintf "rtrunc@%d" n
  | Io.Read_bit_flip n -> Printf.sprintf "rflip@%d" n
  | Io.Read_fail_at n -> Printf.sprintf "rfail@%d" n

let n_read_seeds = 40
let n_write_seeds = 40

(* ---- the matrix ------------------------------------------------------ *)

(* Read-side faults: the file on disk is healthy; the reader rots. *)
let test_read_fault_matrix () =
  let bytes, original = Lazy.force golden in
  let counts = Hashtbl.create 8 in
  let bump k = Hashtbl.replace counts k (1 + try Hashtbl.find counts k with Not_found -> 0) in
  for seed = 1 to n_read_seeds do
    let rng = Random.State.make [| 0xFA; seed |] in
    let fault = read_fault rng (String.length bytes) in
    let what = Printf.sprintf "read[seed=%d %s]" seed (pp_fault fault) in
    let mk_reader () = Io.inject_reader [ fault ] (Io.string_reader bytes) in
    bump (classify ~what ~original mk_reader)
  done;
  (* The seed range must actually exercise all three outcomes. *)
  List.iter
    (fun k ->
      if not (Hashtbl.mem counts k) then
        Alcotest.failf "read matrix never produced outcome %s"
          (match k with
          | `Success -> "success"
          | `Salvaged -> "salvage"
          | `Typed_error -> "typed-error"))
    [ `Success; `Salvaged; `Typed_error ]

(* Write-side faults: persistence is interrupted or silently corrupted;
   whatever prefix "reached the device" is then opened/salvaged. *)
let test_write_fault_matrix () =
  let _, original = Lazy.force golden in
  let t = synth_trace () in
  let ideal_len = String.length (fst (Lazy.force golden)) in
  for seed = 1 to n_write_seeds do
    let rng = Random.State.make [| 0xFB; seed |] in
    let fault = write_fault rng ideal_len in
    let what = Printf.sprintf "write[seed=%d %s]" seed (pp_fault fault) in
    let buf = Buffer.create 65536 in
    let w = Io.inject [ fault ] (Io.buffer_writer buf) in
    let save_outcome = Trace.save_io t w in
    (match (save_outcome, fault) with
    | Ok (), (Io.Write_enospc_after n | Io.Write_crash_at n | Io.Write_short_at n)
      when n < ideal_len ->
      Alcotest.failf "%s: save claimed success past a write fault" what
    | Error _, Io.Write_bit_flip _ ->
      Alcotest.failf "%s: a bit flip must not fail the write" what
    | (Ok () | Error _), _ -> ());
    let landed = Buffer.contents buf in
    let mk_reader () = Io.string_reader landed in
    match classify ~what ~original mk_reader with
    | `Success when save_outcome <> Ok () ->
      (* A failed save may still have landed a loadable prefix only if
         the fault struck at/after the footer — in which case the bytes
         are the complete record stream.  [classify] already proved
         frame identity, so this is fine. *)
      ()
    | `Success | `Salvaged | `Typed_error -> ()
  done

(* A writer killed mid-record: the journal stream's prefix must salvage
   into a replayable trace (the paper's crash-tolerance story — a
   recording you were running when the machine died is still evidence). *)
let test_killed_recording_salvages () =
  let wl = Wl_cp.make ~params:{ Wl_cp.files = 4; file_kb = 64 } () in
  (* Reference run: learn the journal length and the true frame stream. *)
  let ref_buf = Buffer.create 65536 in
  let ref_trace, _, _ =
    let sink = Recorder.Sink_io (Io.buffer_writer ref_buf) in
    Recorder.record ~opts:(Recorder.make_opts ~sink ()) ~setup:wl.Workload.setup
      ~exe:wl.Workload.exe ()
  in
  let reference = Trace.Reader.to_array ref_trace in
  let journal_len = Buffer.length ref_buf in
  Alcotest.(check bool) "journal stream is substantial" true (journal_len > 512);
  List.iter
    (fun frac ->
      let cut = journal_len * frac / 10 in
      let buf = Buffer.create 65536 in
      let journal = Io.inject [ Io.Write_crash_at cut ] (Io.buffer_writer buf) in
      (match
         Recorder.run
           ~opts:(Recorder.make_opts ~sink:(Recorder.Sink_io journal) ())
           ~setup:wl.Workload.setup ~exe:wl.Workload.exe ()
       with
      | Error (Recorder.Rec_trace _) -> ()
      | Error (Recorder.Rec_failure m) ->
        Alcotest.failf "cut %d: wrong error class: %s" cut m
      | Ok _ ->
        (* The crash fired after the last journal write: recording
           finished without touching the dead journal again. *)
        ());
      let landed = Buffer.contents buf in
      Alcotest.(check bool)
        (Printf.sprintf "cut %d: prefix landed" cut)
        true
        (String.length landed <= cut);
      match Trace.salvage_io (Io.string_reader landed) with
      | Error e ->
        if cut >= 64 then
          Alcotest.failf "cut %d: journal prefix unsalvageable: %s" cut
            (Trace.error_to_string e)
      | Ok (s, report) ->
        Alcotest.(check bool)
          (Printf.sprintf "cut %d: uncommitted" cut)
          false report.Trace.sr_committed;
        let frames = Trace.Reader.to_array s in
        if not (is_prefix_of ~original:reference frames) then
          Alcotest.failf "cut %d: salvaged journal is not a prefix" cut;
        if Array.length frames > 0 then begin
          let stats, _ = Replayer.replay s in
          Alcotest.(check int)
            (Printf.sprintf "cut %d: replayed every salvaged frame" cut)
            (Array.length frames) stats.Replayer.events_applied
        end)
    [ 3; 6; 9 ]

(* Telemetry: detected corruption and salvage runs are counted. *)
let test_fault_telemetry_counters () =
  let bytes, _ = Lazy.force golden in
  (* Corrupt a byte mid-file, then open (counts trace.crc_fail on the
     damaged chunk) and salvage (counts salvage.runs etc.). *)
  let damaged = Bytes.of_string bytes in
  let mid = Bytes.length damaged / 2 in
  Bytes.set damaged mid (Char.chr (Char.code (Bytes.get damaged mid) lxor 0x10));
  let damaged = Bytes.to_string damaged in
  let before = Telemetry.snapshot () in
  (match Trace.open_io (Io.string_reader damaged) with
  | Ok _ -> Alcotest.fail "mid-file flip went undetected"
  | Error _ -> ());
  (match Trace.salvage_io (Io.string_reader damaged) with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "salvage failed: %s" (Trace.error_to_string e));
  let after = Telemetry.snapshot () in
  let delta name =
    let get s =
      match List.assoc_opt name s.Telemetry.snap_counters with
      | Some v -> v
      | None -> 0
    in
    get after - get before
  in
  Alcotest.(check bool) "salvage.runs counted" true (delta "salvage.runs" >= 1);
  Alcotest.(check bool) "salvage.chunks_recovered counted" true
    (delta "salvage.chunks_recovered" >= 1);
  Alcotest.(check bool) "salvage.frames_recovered counted" true
    (delta "salvage.frames_recovered" >= 1)

let suites =
  [ ( "fault-injection",
      [ Alcotest.test_case "read-fault matrix (3 reader outcomes)" `Quick
          test_read_fault_matrix;
        Alcotest.test_case "write-fault matrix (3 reader outcomes)" `Quick
          test_write_fault_matrix;
        Alcotest.test_case "killed recording salvages to a replayable prefix"
          `Quick test_killed_recording_salvages;
        Alcotest.test_case "telemetry counters" `Quick
          test_fault_telemetry_counters ] ) ]
