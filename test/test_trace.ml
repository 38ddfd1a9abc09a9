(* Tests for the trace substrate: compression, codec, event roundtrip,
   trace writer/reader. *)

let test_compress_simple () =
  (* Large enough to amortize the code-length tables (tiny inputs take
     the stored-block path and stay put, as with real deflate). *)
  let data = String.concat " " (List.init 60 (fun _ -> "hello")) in
  let c = Compress.deflate data in
  Alcotest.(check string) "roundtrip" data (Compress.inflate c);
  Alcotest.(check bool) "repetitive text shrinks" true
    (String.length c < String.length data)

let test_compress_empty () =
  Alcotest.(check string) "empty" "" (Compress.inflate (Compress.deflate ""))

let test_compress_incompressible () =
  let e = Entropy.create 99 in
  let data = String.init 5000 (fun _ -> Char.chr (Entropy.byte e)) in
  Alcotest.(check string) "random roundtrip" data
    (Compress.inflate (Compress.deflate data))

let test_compress_ratio_on_trace_like_data () =
  (* Trace data is highly repetitive: expect a solid ratio. *)
  let b = Buffer.create 4096 in
  for i = 0 to 999 do
    Buffer.add_string b (Printf.sprintf "event tid=%d nr=%d result=0\n" (i mod 4) (i mod 7))
  done;
  let data = Buffer.contents b in
  let c = Compress.deflate data in
  let ratio = float_of_int (String.length data) /. float_of_int (String.length c) in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.1f > 4" ratio)
    true (ratio > 4.0)

let test_compress_corrupt_rejected () =
  let c = Compress.deflate "some data to compress, with some redundancy redundancy" in
  let mangled = Bytes.of_string c in
  Bytes.set mangled (Bytes.length mangled - 1) '\xff';
  Bytes.set mangled (Bytes.length mangled / 2) '\x00';
  match Compress.inflate (Bytes.to_string mangled) with
  | exception Compress.Corrupt _ -> ()
  | s ->
    (* Mangling may still decode but must not silently agree. *)
    Alcotest.(check bool) "differs" true
      (s <> "some data to compress, with some redundancy redundancy")

let qcheck_compress_roundtrip =
  QCheck.Test.make ~name:"deflate/inflate roundtrip" ~count:200
    QCheck.(string_of_size Gen.(0 -- 3000))
    (fun s -> Compress.inflate (Compress.deflate s) = s)

let qcheck_compress_repetitive =
  QCheck.Test.make ~name:"deflate/inflate roundtrip (repetitive)" ~count:100
    QCheck.(pair (string_of_size Gen.(1 -- 50)) (int_range 1 200))
    (fun (s, n) ->
      let data = String.concat "" (List.init n (fun _ -> s)) in
      Compress.inflate (Compress.deflate data) = data)

let test_codec_varint () =
  let b = Codec.sink () in
  let values = [ 0; 1; -1; 127; 128; -300; max_int; min_int + 1; 42 ] in
  List.iter (Codec.put_int b) values;
  let s = Codec.source (Buffer.contents b) in
  List.iter
    (fun v -> Alcotest.(check int) "varint" v (Codec.get_int s))
    values;
  Alcotest.(check bool) "eof" true (Codec.eof s)

let test_codec_string_list () =
  let b = Codec.sink () in
  Codec.put_list b Codec.put_string [ "a"; ""; "xyz"; String.make 500 'q' ];
  let s = Codec.source (Buffer.contents b) in
  Alcotest.(check (list string))
    "list roundtrip"
    [ "a"; ""; "xyz"; String.make 500 'q' ]
    (Codec.get_list s Codec.get_string)

let qcheck_codec_int_roundtrip =
  QCheck.Test.make ~name:"codec int roundtrip" ~count:500 QCheck.int (fun v ->
      let b = Codec.sink () in
      Codec.put_int b v;
      Codec.get_int (Codec.source (Buffer.contents b)) = v)

let sample_regs = Array.init 17 (fun i -> i * 1000)

let sample_events =
  [ Event.E_syscall
      { tid = 100;
        nr = Sysno.read;
        site = 0x1004;
        writable_site = false;
        via_abort = false;
        regs_after = sample_regs;
        writes = [ { Event.addr = 0x4000; data = "abc" } ];
        kind = Event.K_emulate };
    Event.E_clone
      { parent = 100;
        child = 101;
        flags = Sysno.clone_thread;
        child_sp = 0x5000;
        parent_regs_after = sample_regs;
        child_regs = sample_regs };
    Event.E_exec { tid = 100; image_ref = "images/0"; regs_after = sample_regs };
    Event.E_mmap
      { tid = 101;
        addr = 0x10000000;
        len = 8192;
        prot = 3;
        shared = false;
        source = Event.Src_trace_file "files/0";
        regs_after = sample_regs };
    Event.E_signal
      { tid = 101;
        signo = Signals.sigusr1;
        point = { Event.rcb = 12345; point_regs = sample_regs; stack_extra = 7 };
        disposition =
          Event.Sr_handler
            { frame_addr = 0x7fe0000;
              frame_data = String.make 144 '\x01';
              regs_after = sample_regs;
              mask_after = 0x100 } };
    Event.E_sched
      { tid = 100;
        point = { Event.rcb = 999; point_regs = sample_regs; stack_extra = 0 } };
    Event.E_signal
      { tid = 100;
        signo = Signals.sigchld;
        point = { Event.rcb = 1; point_regs = sample_regs; stack_extra = 0 };
        disposition = Event.Sr_ignored sample_regs };
    Event.E_insn_trap { tid = 100; reg = 5; value = 123456789 };
    Event.E_patch { tid = 100; site = 0x1010 };
    Event.E_buf_flush
      { tid = 100;
        records =
          [ { Event.br_nr = Sysno.read;
              br_result = 10;
              br_writes = [ { Event.addr = 0x4100; data = "0123456789" } ];
              br_clone = None;
              br_aborted = false };
            { Event.br_nr = Sysno.gettimeofday;
              br_result = 55;
              br_writes = [];
              br_clone =
                Some
                  { Event.cr_path = "cloned/100";
                    cr_off = 4096;
                    cr_addr = 0x8000;
                    cr_len = 65536 };
              br_aborted = true }
          ] };
    Event.E_exit { tid = 101; status = 0 };
    Event.E_rr_setup
      { tid = 100;
        rr_page = 0x70000000;
        locals = 0x70001000;
        scratch = 0x70010000;
        buf = 0x70020000;
        buf_len = 65536 } ]

let test_event_roundtrip () =
  (* One context per direction over the whole sequence, exactly as a
     chunk encodes: later frames delta against earlier ones. *)
  let ec = Event.ectx () and b = Codec.sink () in
  List.iter (fun e -> Event.encode ec b e) sample_events;
  let dc = Event.ectx () and s = Codec.source (Buffer.contents b) in
  List.iter
    (fun e ->
      let e' = Event.decode dc s in
      Alcotest.(check string)
        "event roundtrip" (Fmt.str "%a" Event.pp e)
        (Fmt.str "%a" Event.pp e');
      Alcotest.(check bool) "structurally equal" true (e = e'))
    sample_events

(* The per-task register delta codec must round-trip any register
   sequence.  Random sequences are padded with a none-changed pair
   (change mask 0, no deltas) and an all-slots-changed image (full
   mask, 17 zigzag deltas) so both extremes run on every case, and the
   frames alternate between two tasks so the per-task delta state is
   exercised. *)
let qcheck_regs_delta_roundtrip =
  let nregs = Event.pc_slot + 1 in
  QCheck.Test.make ~name:"v2 regs delta roundtrip" ~count:100
    QCheck.(
      list_of_size
        Gen.(1 -- 12)
        (array_of_size (Gen.return nregs)
           (oneof [ int; int_range (-4) 4; always max_int; always min_int ])))
    (fun random_images ->
      let last = List.nth random_images (List.length random_images - 1) in
      let images =
        random_images
        @ [ Array.copy last; (* none changed *)
            Array.map (fun v -> lnot v) last (* every slot changed *) ]
      in
      let frame tid regs =
        Event.E_syscall
          { tid;
            nr = Sysno.read;
            site = 0x1000;
            writable_site = false;
            via_abort = false;
            regs_after = regs;
            writes = [];
            kind = Event.K_emulate }
      in
      let frames =
        List.concat
          (List.map (fun r -> [ frame 7 r; frame 8 (Array.map succ r) ]) images)
      in
      let ec = Event.ectx () and b = Codec.sink () in
      List.iter (Event.encode ec b) frames;
      let dc = Event.ectx () and s = Codec.source (Buffer.contents b) in
      List.for_all (fun e -> Event.decode dc s = e) frames)

let test_trace_writer_reader () =
  let w = Trace.Writer.create ~initial_exe:"/bin/x" () in
  List.iter (fun e -> ignore (Trace.Writer.event w e)) sample_events;
  Trace.Writer.add_file w ~path:"files/0" ~cloned:true (String.make 8192 'z');
  let t = Trace.Writer.finish w in
  Alcotest.(check int) "event count" (List.length sample_events)
    (Trace.n_events t);
  Alcotest.(check int) "cloned blocks" 2 (Trace.stats t).Trace.cloned_blocks;
  (* The compressed chunk stream must decode to the same events. *)
  let decoded = Trace.Reader.to_array t in
  Alcotest.(check int) "decoded count" (List.length sample_events)
    (Array.length decoded);
  Array.iteri
    (fun i e ->
      Alcotest.(check bool) "decoded event equal" true
        (e = List.nth sample_events i))
    decoded;
  Alcotest.(check bool) "compression happened" true
    ((Trace.stats t).Trace.compressed_bytes < (Trace.stats t).Trace.raw_bytes
    || (Trace.stats t).Trace.raw_bytes < 64)

let test_huffman_single_symbol () =
  let freqs = Array.make 10 0 in
  freqs.(3) <- 100;
  let enc = Huffman.encoder freqs in
  let w = Bitio.writer () in
  for _ = 1 to 5 do Huffman.write_symbol w enc 3 done;
  let r = Bitio.reader (Bitio.finish w) in
  let dec = Huffman.decoder enc.Huffman.lens in
  for _ = 1 to 5 do
    Alcotest.(check int) "single symbol" 3 (Huffman.read_symbol r dec)
  done

let qcheck_huffman_roundtrip =
  QCheck.Test.make ~name:"huffman roundtrip" ~count:200
    QCheck.(list_of_size Gen.(1 -- 400) (int_bound 40))
    (fun symbols ->
      let freqs = Array.make 41 0 in
      List.iter (fun s -> freqs.(s) <- freqs.(s) + 1) symbols;
      let enc = Huffman.encoder freqs in
      let w = Bitio.writer () in
      List.iter (Huffman.write_symbol w enc) symbols;
      let r = Bitio.reader (Bitio.finish w) in
      let dec = Huffman.decoder enc.Huffman.lens in
      List.for_all (fun s -> Huffman.read_symbol r dec = s) symbols)

let test_bitio_roundtrip () =
  let w = Bitio.writer () in
  Bitio.put_bits w 0b101 3;
  Bitio.put_bits w 0xffff 16;
  Bitio.put_bits w 0 1;
  Bitio.put_bits w 0b11001 5;
  let r = Bitio.reader (Bitio.finish w) in
  Alcotest.(check int) "3 bits" 0b101 (Bitio.get_bits r 3);
  Alcotest.(check int) "16 bits" 0xffff (Bitio.get_bits r 16);
  Alcotest.(check int) "1 bit" 0 (Bitio.get_bits r 1);
  Alcotest.(check int) "5 bits" 0b11001 (Bitio.get_bits r 5)

(* Robustness: arbitrary bytes must decode to Corrupt, never crash. *)
let qcheck_event_decode_robust =
  QCheck.Test.make ~name:"event decode never crashes on garbage" ~count:500
    QCheck.(string_of_size Gen.(0 -- 200))
    (fun junk ->
      match Event.decode (Event.ectx ()) (Codec.source junk) with
      | _ -> true
      | exception Codec.Corrupt _ -> true
      | exception _ -> false)

let qcheck_varint_decode_robust =
  QCheck.Test.make ~name:"varint decode never crashes" ~count:500
    QCheck.(string_of_size Gen.(0 -- 20))
    (fun junk ->
      match Codec.get_int (Codec.source junk) with
      | _ -> true
      | exception Codec.Corrupt _ -> true
      | exception _ -> false)

(* Kraft inequality: Huffman code lengths always describe a prefix code. *)
let qcheck_huffman_kraft =
  QCheck.Test.make ~name:"huffman lengths satisfy Kraft" ~count:200
    QCheck.(list_of_size Gen.(1 -- 64) (int_bound 1000))
    (fun freqs ->
      let lens = Huffman.lengths (Array.of_list freqs) in
      let sum =
        Array.fold_left
          (fun acc l -> if l > 0 then acc +. (1. /. float_of_int (1 lsl l)) else acc)
          0. lens
      in
      sum <= 1.0 +. 1e-9
      && Array.for_all (fun l -> l <= Huffman.max_code_len) lens)

(* Compression is deterministic: same input, same output. *)
let qcheck_compress_deterministic =
  QCheck.Test.make ~name:"deflate deterministic" ~count:100
    QCheck.(string_of_size Gen.(0 -- 1000))
    (fun s -> Compress.deflate s = Compress.deflate s)

(* CRC-32 one bit at a time over each byte: the definition the sliced
   implementation must agree with. *)
let crc32_reference ?(crc = 0) s ~pos ~len =
  let c = ref (crc lxor 0xffffffff) in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xffffffff

let test_crc32_check_values () =
  Alcotest.(check int) "check value" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "");
  Alcotest.(check int) "reference check value" 0xCBF43926
    (crc32_reference "123456789" ~pos:0 ~len:9)

(* Short lengths hit the bytewise tail alone; 4 KiB + 0..7 run the
   eight-byte loop and then every tail length.  Random padding on both
   sides moves [pos] off the string's start. *)
let qcheck_crc32_matches_reference =
  let gen =
    QCheck.Gen.(
      let* len = oneof [ int_range 0 40; map (( + ) 4096) (int_range 0 7) ] in
      let* pos = int_range 0 9 in
      let* after = int_range 0 9 in
      let+ s = string_size (return (pos + len + after)) in
      (s, pos, len))
  in
  QCheck.Test.make ~name:"sub agrees with the bytewise reference" ~count:300
    (QCheck.make
       ~print:(fun (s, pos, len) ->
         Printf.sprintf "len=%d pos=%d %S" len pos
           (String.sub s pos (min len 48)))
       gen)
    (fun (s, pos, len) ->
      Crc32.sub s ~pos ~len = crc32_reference s ~pos ~len)

(* The record writer checksums the tag and then the payload through
   [~crc]; any split must give the one-pass value. *)
let qcheck_crc32_chains =
  QCheck.Test.make ~name:"chaining across any split equals one pass"
    ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 300)) small_nat)
    (fun (s, k) ->
      let n = String.length s in
      let k = if n = 0 then 0 else k mod (n + 1) in
      let head = Crc32.sub s ~pos:0 ~len:k in
      Crc32.sub ~crc:head s ~pos:k ~len:(n - k) = Crc32.string s
      && Crc32.string ~crc:(Crc32.string (String.sub s 0 k))
           (String.sub s k (n - k))
         = Crc32.string s)

let suites =
  [ ( "trace.crc32",
      [ Alcotest.test_case "check values" `Quick test_crc32_check_values;
        QCheck_alcotest.to_alcotest qcheck_crc32_matches_reference;
        QCheck_alcotest.to_alcotest qcheck_crc32_chains ] );
    ( "trace.compress",
      [ Alcotest.test_case "simple roundtrip" `Quick test_compress_simple;
        Alcotest.test_case "empty" `Quick test_compress_empty;
        Alcotest.test_case "incompressible" `Quick test_compress_incompressible;
        Alcotest.test_case "trace-like ratio" `Quick
          test_compress_ratio_on_trace_like_data;
        Alcotest.test_case "corruption detected" `Quick
          test_compress_corrupt_rejected;
        QCheck_alcotest.to_alcotest qcheck_compress_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_compress_repetitive ] );
    ( "trace.codec",
      [ Alcotest.test_case "varint" `Quick test_codec_varint;
        Alcotest.test_case "string list" `Quick test_codec_string_list;
        QCheck_alcotest.to_alcotest qcheck_codec_int_roundtrip ] );
    ( "trace.bitio",
      [ Alcotest.test_case "roundtrip" `Quick test_bitio_roundtrip ] );
    ( "trace.huffman",
      [ Alcotest.test_case "single symbol" `Quick test_huffman_single_symbol;
        QCheck_alcotest.to_alcotest qcheck_huffman_roundtrip ] );
    ( "trace.events",
      [ Alcotest.test_case "encode/decode roundtrip" `Quick
          test_event_roundtrip;
        QCheck_alcotest.to_alcotest qcheck_regs_delta_roundtrip;
        Alcotest.test_case "writer/reader + chunks" `Quick
          test_trace_writer_reader;
        QCheck_alcotest.to_alcotest qcheck_event_decode_robust;
        QCheck_alcotest.to_alcotest qcheck_varint_decode_robust;
        QCheck_alcotest.to_alcotest qcheck_huffman_kraft;
        QCheck_alcotest.to_alcotest qcheck_compress_deterministic ] ) ]
