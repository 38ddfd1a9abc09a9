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

(* ---- byte identity with the reference coder ----------------------- *)

(* The six CLI workloads recorded at seed 1, once per test run. *)
let seed1_traces =
  lazy
    (List.map
       (fun w ->
         let recd, _ =
           Workload.record ~opts:(Recorder.make_opts ~seed:1 ()) w
         in
         (w.Workload.name, recd.Workload.trace))
       [ Wl_cp.make (); Wl_make.make (); Wl_octane.make ();
         Wl_htmltest.make (); Wl_samba.make (); Wl_serve.make () ])

let stored_chunks t =
  List.init (Array.length (Trace.chunk_index t)) (Trace.chunk_stored t)

let serve_raw_chunks =
  lazy
    (List.map Compress.inflate
       (stored_chunks (List.assoc "serve" (Lazy.force seed1_traces))))

(* Random strings over alphabets of 2 to 256 letters, so that chains
   hold many candidates of equal length. *)
let gen_random_input =
  QCheck.Gen.(
    let* k = oneofl [ 2; 4; 16; 256 ] in
    string_size ~gen:(map Char.chr (int_bound (k - 1))) (int_range 0 3000))

(* Runs of a repeated seed, with periods that lean on the distance-code
   bases, and window edges: a string, a filler run, and the string again
   at a distance within 8 bytes of 32 KiB.  Segments are dropped that
   would take the input past 70 KB. *)
let gen_periodic_input =
  let dist_bases =
    [ 1; 2; 3; 4; 5; 7; 9; 13; 17; 25; 33; 49; 65; 97; 129; 193; 257 ]
  in
  let seeded k p =
    QCheck.Gen.(string_size ~gen:(map Char.chr (int_bound (k - 1))) (return p))
  in
  let run =
    QCheck.Gen.(
      let* p =
        oneof
          [ int_range 1 300; oneofl dist_bases;
            map pred (oneofl (List.tl dist_bases)) ]
      in
      let* seed = oneofl [ 4; 256 ] >>= fun k -> seeded k p in
      let+ len = int_range 1 11_000 in
      String.init len (fun i -> seed.[i mod p]))
  in
  let edge =
    QCheck.Gen.(
      let* x = int_range 4 64 >>= seeded 256 in
      let+ d = int_range 32_760 32_776 in
      x ^ String.make (d - String.length x) '\000' ^ x)
  in
  QCheck.Gen.(
    let+ segs = list_size (int_range 1 6) (frequency [ (3, run); (1, edge) ]) in
    let b = Buffer.create 4096 in
    List.iter
      (fun seg ->
        if Buffer.length b + String.length seg <= 70_000 then
          Buffer.add_string b seg)
      segs;
    Buffer.contents b)

let gen_serve_chunk st =
  let chunks = Lazy.force serve_raw_chunks in
  List.nth chunks (Random.State.int st (List.length chunks))

let arb_deflate_input =
  QCheck.make
    ~print:(fun s ->
      Printf.sprintf "%d bytes: %S" (String.length s)
        (String.sub s 0 (min 64 (String.length s))))
    QCheck.Gen.(
      frequency
        [ (4, gen_random_input); (4, gen_periodic_input);
          (1, gen_serve_chunk) ])

let qcheck_deflate_matches_reference =
  QCheck.Test.make ~name:"deflate equals the reference's bytes" ~count:200
    arb_deflate_input
    (fun s -> Compress.deflate s = Compress_ref.deflate s)

let qcheck_inflate_inverts_reference =
  QCheck.Test.make ~name:"inflate inverts the reference's output" ~count:200
    arb_deflate_input
    (fun s -> Compress.inflate (Compress_ref.deflate s) = s)

(* Compression is deterministic and keeps no state between calls: other
   inputs deflated in between change nothing. *)
let qcheck_compress_deterministic =
  QCheck.Test.make ~name:"deflate deterministic" ~count:100
    (QCheck.make
       QCheck.Gen.(
         pair gen_random_input (list_size (int_range 1 3) gen_random_input)))
    (fun (s, others) ->
      let first = Compress.deflate s in
      List.iter (fun o -> ignore (Compress.deflate o)) others;
      Compress.deflate s = first)

(* Tripwire for stored bytes: the CRC-32 and length of each seed-1
   trace's concatenated stored chunks, as the reference coder wrote
   them.  Any change to the parse or the bitstream fails here. *)
let stored_bytes_expected =
  [ ("cp", 0x0eaceaa5, 536); ("make", 0x69a25d4f, 6990);
    ("octane", 0x0fbede59, 575); ("htmltest", 0x635c300a, 781);
    ("sambatest", 0x510625f6, 1056); ("serve", 0xedceb58d, 7176) ]

let test_stored_bytes_tripwire () =
  List.iter2
    (fun (name, t) (name', crc, len) ->
      let stored = String.concat "" (stored_chunks t) in
      Alcotest.(check (pair string (pair int int)))
        "stored chunks' CRC-32 and length" (name', (crc, len))
        (name, (Crc32.string stored, String.length stored)))
    (Lazy.force seed1_traces) stored_bytes_expected

(* ---- whole files and durable checkpoints -------------------------- *)

let crc_and_length s = (Crc32.string s, String.length s)

(* Words allocated since the program started: minor + major − promoted,
   after a minor collection.  The count does not depend on the heap's
   size or on timing. *)
let words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let word_bytes = float_of_int (Sys.word_size / 8)

(* A file's CRC-32 and length, and its MD5.  Every record of a trace
   file ends with the CRC-32 of its own payload, and CRC-32 is linear:
   a message followed by its CRC-32 leaves the register in a state that
   does not depend on the message.  A whole file's CRC-32 therefore sees
   the tags, lengths and unchecked bytes but not what the payloads hold;
   the MD5 does. *)
type pin = { crc_len : int * int; md5 : Digest.t }

let pin s = { crc_len = crc_and_length s; md5 = Digest.string s }

let saved_file t =
  let path = Filename.temp_file "rr_tripwire" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Trace.save_exn t path;
  In_channel.with_open_bin path In_channel.input_all

(* A trace's saved file before indexing, the file after it, pinned, and
   its durable checkpoint blobs in frame order with the pool they name.
   Indexing attaches the index to the trace, so the plain file is saved
   first. *)
let saved_and_indexed t =
  let plain = saved_file t in
  let ix = Trace_indexer.build_and_attach t in
  ( plain,
    pin (saved_file t),
    ( Array.map
        (fun (_, b) -> Codec.slice_string b)
        (Trace_index.checkpoints ix),
      Trace_index.pool ix ) )

(* The seed-1 traces indexed once per test run. *)
let seed1_indexed =
  lazy
    (List.map
       (fun (name, t) -> (name, saved_and_indexed t))
       (Lazy.force seed1_traces))

(* One chaos recording, indexed: it pins [Rec_sched]'s chaos priorities
   and [Kernel.wait]'s tie-break under a perturbed schedule. *)
let serve_chaos =
  lazy
    (let recd, _ =
       Workload.record
         ~opts:(Recorder.make_opts ~seed:1 ~chaos:true ())
         (Wl_serve.make ())
     in
     ("serve-chaos", saved_and_indexed recd.Workload.trace))

let seed1_checkpoints =
  lazy
    (List.map
       (fun (name, (_, _, blobs)) -> (name, blobs))
       (Lazy.force seed1_indexed))

(* Tripwire for whole files: the CRC-32 and length of each seed-1
   trace's [Trace.save] output, plain and indexed, then the same for the
   chaos recording; and one MD5 over the two files' MD5s, which alone
   sees the record payloads.  A reordered, added, dropped or changed
   record, a changed trailer or a changed schedule fails here. *)
let saved_files_expected =
  [ ( "cp",
      ((0xac964bc5, 4195998), (0x35e47a6c, 4225120)),
      "30381755e1d778ccf4f9cb31def81d9a" );
    ( "make",
      ((0xa803c7bf, 866227), (0x63af5f95, 2380271)),
      "896faaddb3e99cf77a72a674aeb490d2" );
    ( "octane",
      ((0x8afda5e0, 1282), (0xed6303de, 108285)),
      "ad774202f112966f67eea75d3d1fc34c" );
    ( "htmltest",
      ((0x7d705f8d, 984399), (0x8280da26, 1462952)),
      "7fda84cb1af6c232b8ce6cb61fbd12ac" );
    ( "sambatest",
      ((0xc27e9603, 1879), (0x2b919cdd, 176559)),
      "979a2eba6e1f57cf3d01660a066a4041" );
    ( "serve",
      ((0x1596a4ed, 8731), (0x72c1a695, 1404530)),
      "a10569f51e4e64974a66b011f5159b9b" );
    ( "serve-chaos",
      ((0x09327df6, 10689), (0xd74eb827, 1381491)),
      "996d03bf241c7044d8cf91aa40460df2" ) ]

let test_saved_files_tripwire () =
  let crc_len = Alcotest.(pair int int) in
  List.iter2
    (fun (name, (plain, indexed, _)) (name', crc_lens', md5') ->
      let plain = pin plain in
      Alcotest.(check (pair string (pair crc_len crc_len)))
        "plain and indexed file: CRC-32 and length" (name', crc_lens')
        (name, (plain.crc_len, indexed.crc_len));
      Alcotest.(check (pair string string))
        "MD5 of the two files' MD5s" (name', md5')
        (name, Digest.to_hex (Digest.string (plain.md5 ^ indexed.md5))))
    (Lazy.force seed1_indexed @ [ Lazy.force serve_chaos ])
    saved_files_expected

(* A cold open keeps every payload, chunk, file, checkpoint blob and
   pool window, where it lies in the bytes read, so it holds those bytes
   once.  Opening a saved cp trace, nearly all of it one cloned file,
   allocates about the file once (the read), not twice, and keeps it.
   Opening each indexed seed-1 trace, mostly checkpoint blobs and pool
   windows, allocates and keeps little more than the file.  Words are
   counted, not time. *)
let test_cold_open_holds_the_file_once () =
  let opened t =
    let path = Filename.temp_file "rr_open" ".trace" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Trace.save_exn t path;
    let size = In_channel.with_open_bin path In_channel.length in
    let before = words () in
    let o = Trace.open_exn path in
    let alloc = (words () -. before) *. word_bytes in
    let kept = float_of_int (Obj.reachable_words (Obj.repr o)) *. word_bytes in
    (o, Int64.to_float size, alloc, kept)
  in
  let check name what x bound =
    Alcotest.(check bool)
      (Printf.sprintf "%s: %s %.2fx the file, < %.2fx" name what x bound)
      true (x < bound)
  in
  let recd, _ =
    Workload.record ~opts:(Recorder.make_opts ~seed:1 ()) (Wl_cp.make ())
  in
  let cp = recd.Workload.trace in
  let o, size, alloc, kept = opened cp in
  Alcotest.(check (list (pair string string)))
    "the opened files read as saved" (Trace.files cp) (Trace.files o);
  check "cp" "open allocates" (alloc /. size) 1.1;
  check "cp" "the opened trace holds" (kept /. size) 1.2;
  (* Indexing the seed-1 traces attaches the index to each. *)
  ignore (Lazy.force seed1_indexed);
  List.iter
    (fun (name, t) ->
      if Trace.index t = None then Alcotest.failf "%s carries no index" name;
      let _, size, alloc, kept = opened t in
      let name = "indexed " ^ name in
      check name "open allocates" (alloc /. size) 1.15;
      check name "the opened trace holds" (kept /. size) 1.15)
    (Lazy.force seed1_traces)

(* Tripwire for durable-checkpoint bytes: the CRC-32 and length of each
   seed-1 trace's checkpoint blobs, then its pool's entries,
   concatenated.  A change to the snapshot codec, or to the state a
   checkpoint captures, fails here. *)
let checkpoint_bytes_expected =
  [ ("cp", 0x84ae4517, 28693); ("make", 0xa31b054d, 1507290);
    ("octane", 0x1345fbd6, 104809); ("htmltest", 0x13ff677b, 475382);
    ("sambatest", 0xa4973977, 171304); ("serve", 0x23b34d8d, 1388380) ]

let test_checkpoint_bytes_tripwire () =
  List.iter2
    (fun (name, (blobs, pool)) (name', crc, len) ->
      let entries =
        List.init (Trace_index.Pool.length pool) (fun i ->
            Codec.slice_string (Trace_index.Pool.get pool i))
      in
      let all = String.concat "" (Array.to_list blobs @ entries) in
      Alcotest.(check (pair string (pair int int)))
        "checkpoint blobs' CRC-32 and length" (name', (crc, len))
        (name, (Crc32.string all, String.length all)))
    (Lazy.force seed1_checkpoints) checkpoint_bytes_expected

(* A blob names each space's text as per-page runs in the pool, and
   decoded spaces share text and frames differently from live ones: each
   decoded checkpoint must encode to the bytes it came from, against the
   index's pool, without adding an entry to it. *)
let test_decoded_checkpoints_reencode () =
  List.iter
    (fun (name, (blobs, pool)) ->
      let entries = Trace_index.Pool.length pool in
      Array.iteri
        (fun i blob ->
          let again =
            Snapshot.encode pool (Snapshot.decode pool (Codec.whole blob))
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s checkpoint %d re-encodes to its bytes" name i)
            true (String.equal again blob);
          Alcotest.(check int)
            (Printf.sprintf "%s checkpoint %d adds no pool entry" name i)
            entries
            (Trace_index.Pool.length pool))
        blobs)
    (Lazy.force seed1_checkpoints)

(* The indexed seed-1 serve trace's index. *)
let serve_index () =
  ignore (Lazy.force seed1_indexed);
  match Trace.index (List.assoc "serve" (Lazy.force seed1_traces)) with
  | Some ix -> ix
  | None -> Alcotest.fail "serve carries no index"

(* Its checkpoints: each frame with its blob where the trace holds it. *)
let serve_checkpoints () = Trace_index.checkpoints (serve_index ())

(* A decoded checkpoint borrows the bytes of its frames and of each
   task's locals from the pool, and its processes share their signal
   actions, so decoding a blob allocates less than the blob and the
   pool entries it names: each seed-1 serve checkpoint's decode may
   allocate at most [c] times their words plus [k] words.  The entries a
   blob names are those a fresh pool receives when its decoded snapshot
   is encoded again.  A decoder that copies every non-zero frame out of
   the pool allocates more than that. *)
let test_decoding_allocates_less_than_the_blob () =
  let c = 0.75 and k = 2048. in
  let pool = Trace_index.pool (serve_index ()) in
  Array.iteri
    (fun i (_, (blob : Codec.slice)) ->
      let before = words () in
      let snap = Snapshot.decode pool blob in
      let alloc = words () -. before in
      let named = Trace_index.Pool.create () in
      ignore (Snapshot.encode named snap);
      let in_words =
        float_of_int (blob.len + Trace_index.Pool.bytes named) /. word_bytes
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "checkpoint %d: %.0f words for %.0f blob and entry words (%.2fx), \
            <= %.2fx + %.0f"
           i alloc in_words (alloc /. in_words) c k)
        true
        (alloc <= (c *. in_words) +. k))
    (serve_checkpoints ())

(* A restored frame borrows its bytes from the trace's own blob until
   its first write copies them.  One debugger session on indexed seed-1
   serve seeks to every checkpoint frame, forward and then backward, and
   steps a few frames past each, writing through frames it restored:
   forward, each seek restores the durable checkpoint there; backward,
   the last one restores the decoded snapshot kept from the first pass.
   Afterwards every pool entry and every blob still holds its bytes, and
   each blob decodes and re-encodes to them. *)
let test_restored_frames_copy_before_writing () =
  let t = List.assoc "serve" (Lazy.force seed1_traces) in
  let cps = serve_checkpoints () and pool = Trace_index.pool (serve_index ()) in
  let copy (b : Codec.slice) = String.sub b.str b.pos b.len in
  let stored = Array.map (fun (_, b) -> copy b) cps in
  let entries =
    Array.init (Trace_index.Pool.length pool) (fun i ->
        copy (Trace_index.Pool.get pool i))
  in
  let d = Debugger.create t in
  let base = Telemetry.snapshot () in
  let visit (frame, _) =
    (match Debugger.Query.seek_to_frame d frame with
    | Ok () -> ()
    | Error e -> Alcotest.fail (Debugger.Query.error_to_string e));
    for _ = 1 to 4 do
      if not (Debugger.at_end d) then ignore (Debugger.step d)
    done
  in
  Array.iter visit cps;
  let hits =
    List.assoc "index.hit" (Telemetry.since base).Telemetry.snap_counters
  in
  Alcotest.(check bool)
    (Printf.sprintf "%d durable restores for %d checkpoints" hits
       (Array.length cps))
    true
    (hits >= Array.length cps - 1);
  Array.iter visit (Array.of_list (List.rev (Array.to_list cps)));
  Array.iteri
    (fun i bytes ->
      let now = Codec.slice_string (Trace_index.Pool.get pool i) in
      if not (String.equal now bytes) then
        Alcotest.failf "pool entry %d changed" i)
    entries;
  Array.iteri
    (fun i (_, blob) ->
      Alcotest.(check bool)
        (Printf.sprintf "checkpoint %d's blob holds its bytes" i)
        true
        (String.equal (Codec.slice_string blob) stored.(i));
      Alcotest.(check bool)
        (Printf.sprintf "checkpoint %d decodes and re-encodes to its bytes" i)
        true
        (String.equal
           (Snapshot.encode pool (Snapshot.decode pool blob))
           stored.(i)))
    cps

(* Encoding a checkpoint allocates about its blob and the pool entries
   it adds: the text of each page is encoded once per blob, a window is
   copied only when the pool first sees it, and the blob is assembled
   once at its final length.  Seed-1 serve is replayed to each frame its
   index holds a checkpoint for, as the indexer does; the live snapshot
   there, encoded against a pool that starts empty, must be the stored
   blob, and the encodes together may allocate at most [c] times the
   words of the blobs and of the entries they added, plus [k] words.  An
   encoder that copies every window it names allocates more. *)
let test_encoding_allocates_about_the_blobs () =
  let c = 1.5 and k = 32_768. in
  let t = List.assoc "serve" (Lazy.force seed1_traces) in
  let blobs, _ = List.assoc "serve" (Lazy.force seed1_checkpoints) in
  let frames =
    match Trace.index t with
    | Some ix -> Array.map fst (Trace_index.checkpoints ix)
    | None -> Alcotest.fail "serve carries no index"
  in
  let pool = Trace_index.Pool.create () in
  let r = Replayer.start t in
  let alloc = ref 0. in
  Array.iteri
    (fun i frame ->
      while Replayer.cursor_index r < frame do
        ignore (Replayer.step r)
      done;
      let snap = Replayer.snapshot r in
      let before = words () in
      let blob = Snapshot.encode pool snap in
      alloc := !alloc +. (words () -. before);
      Alcotest.(check bool)
        (Printf.sprintf "checkpoint %d encodes to the stored blob" i)
        true (String.equal blob blobs.(i)))
    frames;
  let blob_bytes = Array.fold_left (fun n b -> n + String.length b) 0 blobs in
  let in_words =
    float_of_int (blob_bytes + Trace_index.Pool.bytes pool) /. word_bytes
  in
  Alcotest.(check bool)
    (Printf.sprintf
       "%.0f words for %.0f blob and entry words (%.2fx), <= %.2fx + %.0f"
       !alloc in_words (!alloc /. in_words) c k)
    true
    (!alloc <= (c *. in_words) +. k)

(* Deflate's parse hashes four bytes at every position it inserts or
   looks up, and allocates nothing there: deflating the largest seed-1
   serve chunk (57 KB) allocates at most 3 words an input byte, most of
   them the hash chains' two arrays.  A hash that reads its bytes
   through a local closure allocates at every call, over 6 words a
   byte. *)
let test_deflate_allocation () =
  let raw =
    List.fold_left
      (fun a s -> if String.length s > String.length a then s else a)
      "" (Lazy.force serve_raw_chunks)
  in
  let before = words () in
  let stored = Compress.deflate raw in
  let alloc = words () -. before in
  ignore (Sys.opaque_identity stored);
  let per_byte = alloc /. float_of_int (String.length raw) in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for %d bytes (%.2f a byte), <= 3" alloc
       (String.length raw) per_byte)
    true (per_byte <= 3.)

(* An index's counts are checked against the bytes after them before
   anything is sized by them: a 7-byte meta payload declaring a clock
   curve of 2^22 entries is [Codec.Corrupt] at once, with under 64 KB
   allocated, where an array of that count takes 33.6 MB.  The same
   payload under another index version is dropped, as an older file's
   index is. *)
let test_index_counts_bounded () =
  ignore (Lazy.force seed1_indexed);
  let version =
    match Trace.index (List.assoc "cp" (Lazy.force seed1_traces)) with
    | Some ix ->
      let b = Codec.sink () in
      Trace_index.put_meta b ix;
      Codec.get_uvarint (Codec.source (Buffer.contents b))
    | None -> Alcotest.fail "cp carries no index"
  in
  let b = Codec.sink () in
  List.iter (Codec.put_uvarint b) [ version; 0; 1 lsl 22; 0 ];
  let payload = Buffer.contents b in
  Alcotest.(check int) "a 7-byte payload" 7 (String.length payload);
  let before = words () in
  (match Trace_index.get_meta (Codec.source payload) with
  | _ -> Alcotest.fail "a forged clock count decoded"
  | exception Codec.Corrupt _ -> ());
  let alloc = (words () -. before) *. word_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f bytes allocated, < 64 KB" alloc)
    true (alloc < 65536.);
  let other = Bytes.of_string payload in
  Bytes.set other 0 (Char.chr (version + 1));
  Alcotest.(check bool) "another version's tables are dropped" true
    (Trace_index.get_meta (Codec.source (Bytes.to_string other)) = None)

(* A loader checks an image at open and decodes it at first use, so the
   check reads every instruction tag's fields as the decoder does: one
   instruction of each of the 23 tags reads to its end and decodes
   back, and a register field out of range fails both. *)
let test_image_check_reads_as_decode () =
  let open Insn in
  let insns =
    [ Nop; Mov (1, Imm (-5)); Alu (Xor, 2, Reg 3); Load (4, 5, 16);
      Store (6, 7, -8); Load8 (8, 9, 1); Store8 (10, 11, 2); Jmp 0x4000;
      Jcc (Lt, 12, Imm 7, 0x4010); Call 0x4020; Callr 13; Ret; Push (Reg 14);
      Pop 15; Syscall; Rdtsc 0; Rdrand 1; Cpuid_core 2; Cas (3, 4, 5, 6);
      Pause; Emit (7, 8); Hook 3; Halt ]
  in
  let encoded insn =
    let b = Codec.sink () in
    Image_codec.put_insn b insn;
    Buffer.contents b
  in
  Alcotest.(check (list int)) "one instruction of each tag"
    (List.init 23 Fun.id)
    (List.map (fun i -> Char.code (encoded i).[0]) insns);
  List.iter
    (fun insn ->
      let bytes = encoded insn in
      let s = Codec.source bytes in
      Image_codec.check_insn s;
      Alcotest.(check bool) "the check reads the instruction" true
        (Codec.eof s);
      Alcotest.(check bool) "it decodes back" true
        (Image_codec.get_insn (Codec.source bytes) = insn))
    insns;
  List.iter
    (fun insn ->
      let bytes = encoded insn in
      let refused f =
        match f (Codec.source bytes) with
        | _ -> false
        | exception Codec.Corrupt _ -> true
      in
      Alcotest.(check (pair bool bool)) "both refuse r16" (true, true)
        ( refused Image_codec.check_insn,
          refused (fun s -> ignore (Image_codec.get_insn s)) ))
    [ Mov (16, Imm 0); Alu (Add, 0, Reg 16); Jcc (Eq, 16, Imm 0, 0);
      Cas (0, 0, 0, 16); Emit (16, 0); Push (Reg 16) ]

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

(* [get_bytes] copies its payload once: at most the payload's words and
   a few more. *)
let test_codec_get_bytes_copies_once () =
  let payload = Bytes.init 65_536 (fun i -> Char.chr (i land 0xff)) in
  let b = Codec.sink () in
  Codec.put_bytes b payload;
  let s = Codec.source (Buffer.contents b) in
  let before = words () in
  let got = Codec.get_bytes s in
  let alloc = words () -. before in
  Alcotest.(check bool) "payload read back" true (Bytes.equal got payload);
  let payload_words = float_of_int (Bytes.length payload) /. word_bytes in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words for a %.0f-word payload, <= +64" alloc
       payload_words)
    true
    (alloc <= payload_words +. 64.)

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
  let r = Bitio.reader (Bitio.finish w) ~pos:0 in
  let dec = Huffman.decoder enc.Huffman.lens in
  for _ = 1 to 5 do
    Alcotest.(check int) "single symbol" 3 (Huffman.read_symbol r dec)
  done

(* The table decoder must read what the encoder's whole-code writes
   put down, and so must the reference's bit-at-a-time decoder: the
   codes go out canonical and MSB-first. *)
let qcheck_huffman_roundtrip =
  QCheck.Test.make ~name:"huffman roundtrip" ~count:200
    QCheck.(list_of_size Gen.(1 -- 400) (int_bound 40))
    (fun symbols ->
      let freqs = Array.make 41 0 in
      List.iter (fun s -> freqs.(s) <- freqs.(s) + 1) symbols;
      let enc = Huffman.encoder freqs in
      let w = Bitio.writer () in
      List.iter (Huffman.write_symbol w enc) symbols;
      let stream = Bitio.finish w in
      let r = Bitio.reader stream ~pos:0 in
      let dec = Huffman.decoder enc.Huffman.lens in
      let ref_r = Bitio.reader stream ~pos:0 in
      let ref_dec = Compress_ref.decoder enc.Huffman.lens in
      List.for_all
        (fun s ->
          Huffman.read_symbol r dec = s
          && Compress_ref.read_symbol ref_r ref_dec = s)
        symbols)

let test_bitio_roundtrip () =
  let w = Bitio.writer () in
  Bitio.put_bits w 0b101 3;
  Bitio.put_bits w 0xffff 16;
  Bitio.put_bits w 0 1;
  Bitio.put_bits w 0b11001 5;
  let r = Bitio.reader (Bitio.finish w) ~pos:0 in
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

(* ---- damaged deflate streams -------------------------------------- *)

(* Damage raises [Corrupt] and nothing else, and a stream [s] read
   where it lies, with bytes [after] it, reads the same: [inflate_sub]
   stops at the stream's end. *)
let corrupt_only (s, after) =
  let inflated f =
    match f () with out -> Some out | exception Compress.Corrupt _ -> None
  in
  let framed = "\001\255" ^ s ^ after in
  match
    ( inflated (fun () -> Compress.inflate s),
      inflated (fun () ->
          Compress.inflate_sub framed ~pos:2 ~len:(String.length s)) )
  with
  | alone, in_place -> alone = in_place
  | exception _ -> false

(* The mode byte and 48-bit size header of a Huffman-mode stream. *)
let huffman_header size =
  let w = Bitio.writer () in
  Bitio.put_bits w (size land 0xffffff) 24;
  Bitio.put_bits w (size lsr 24) 24;
  "\001" ^ Bitio.finish w

(* A Huffman-mode stream declaring [size] and the given code lengths,
   then [body] raw. *)
let crafted_stream ~size ~lit_lens ~dist_lens body =
  let w = Bitio.writer () in
  Array.iter (fun l -> Bitio.put_bits w l 4) (Array.append lit_lens dist_lens);
  huffman_header size ^ Bitio.finish w ^ body

let qcheck_inflate_robust =
  let garbage =
    QCheck.Gen.(map (( ^ ) "\001") (string_size (int_range 0 400)))
  in
  (* A declared size small enough to pass the size check. *)
  let small_size =
    QCheck.Gen.(
      let* size = int_range 0 2000 in
      let+ body = string_size (int_range 0 400) in
      huffman_header size ^ body)
  in
  let flipped =
    QCheck.Gen.(
      let* s = oneof [ gen_random_input; gen_periodic_input ] in
      let+ flips = list_size (int_range 1 4) (pair nat (int_bound 7)) in
      let d = Bytes.of_string (Compress.deflate s) in
      if Bytes.length d > 1 then
        List.iter
          (fun (i, bit) ->
            let i = 1 + (i mod (Bytes.length d - 1)) in
            Bytes.set d i
              (Char.chr (Char.code (Bytes.get d i) lxor (1 lsl bit))))
          flips;
      Bytes.to_string d)
  in
  let ones = QCheck.Gen.return (String.make 8 '\255') in
  (* A stream cut short, followed by the rest of it. *)
  let cut =
    QCheck.Gen.(
      let* s = oneof [ gen_random_input; gen_periodic_input ] in
      let d = Compress.deflate s in
      let+ k = int_bound (String.length d - 1) in
      (String.sub d 0 k, String.sub d k (String.length d - k)))
  in
  QCheck.Test.make ~name:"inflate raises only Corrupt on damage" ~count:1500
    (QCheck.make
       ~print:(fun (s, after) ->
         String.escaped s ^ " then " ^ String.escaped after)
       QCheck.Gen.(
         oneof
           [ pair garbage ones; pair small_size ones; pair flipped ones; cut ]))
    corrupt_only

(* A real checkpoint blob, cut short or with bits flipped, decodes or
   raises [Codec.Corrupt], and nothing else.  A cut blob is a shorter
   slice of the whole one, as a blob lies in a loaded file's bytes with
   more records after it.  Flips land anywhere, or in the header and
   image section at the front, or in the spaces and tasks at the back:
   the page bytes between them decode whatever they hold. *)
type blob_damage = Truncate of int | Flip of (int * int) list

let damaged_blob (trace, cp, damage) =
  let blobs, pool = snd (List.nth (Lazy.force seed1_checkpoints) trace) in
  let blob = blobs.(cp mod Array.length blobs) in
  let n = String.length blob in
  pool,
  match damage with
  | Truncate k -> { Codec.str = blob; pos = 0; len = k mod n }
  | Flip flips ->
    let b = Bytes.of_string blob in
    List.iter
      (fun (pos, bit) ->
        let i = if pos < 0 then max 0 (n + pos) else pos mod n in
        Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl bit))))
      flips;
    Codec.whole (Bytes.to_string b)

let qcheck_snapshot_decode_robust =
  let damage =
    QCheck.Gen.(
      let pos =
        frequency
          [ (1, nat); (1, int_bound 4095);
            (1, map (fun k -> -k - 1) (int_bound 8191)) ]
      in
      let flips = list_size (int_range 1 4) (pair pos (int_bound 7)) in
      oneof [ map (fun k -> Truncate k) nat; map (fun l -> Flip l) flips ])
  in
  QCheck.Test.make ~name:"snapshot decode raises only Corrupt on damage"
    ~count:300
    (QCheck.make
       ~print:(fun (t, cp, d) ->
         Printf.sprintf "trace %d, checkpoint %d, %s" t cp
           (match d with
           | Truncate k -> Printf.sprintf "truncate %d" k
           | Flip l ->
             String.concat " "
               (List.map (fun (p, b) -> Printf.sprintf "flip %d.%d" p b) l)))
       QCheck.Gen.(triple (int_bound 5) nat damage))
    (fun case ->
      let pool, blob = damaged_blob case in
      match Snapshot.decode pool blob with
      | _ -> true
      | exception Codec.Corrupt _ -> true
      | exception _ -> false)

(* Declared sizes far beyond what the body could encode are refused
   before anything of that size is allocated. *)
let test_inflate_size_bound () =
  let good =
    Compress.deflate (String.concat "," (List.init 300 string_of_int))
  in
  Alcotest.(check char) "huffman mode" '\001' good.[0];
  List.iter
    (fun size ->
      let body = String.sub good 7 (String.length good - 7) in
      let s = huffman_header size ^ body in
      let before = Gc.allocated_bytes () in
      (match Compress.inflate s with
       | _ -> Alcotest.failf "size %d accepted" size
       | exception Compress.Corrupt _ -> ());
      Alcotest.(check bool)
        (Printf.sprintf "size %d: under 1 MB allocated" size)
        true
        (Gc.allocated_bytes () -. before < 1e6))
    [ 1 lsl 28; 1 lsl 32; (1 lsl 48) - 1 ]

(* Code tables with no code at all, or gaps: reading from them is
   Corrupt. *)
let test_inflate_empty_code_table () =
  let no_codes n = Array.make n 0 in
  let empty =
    crafted_stream ~size:1 ~lit_lens:(no_codes 286) ~dist_lens:(no_codes 30)
      (String.make 8 '\000')
  in
  (match Compress.inflate empty with
   | _ -> Alcotest.fail "empty table decoded"
   | exception Compress.Corrupt _ -> ());
  (* One literal of length 1: code 0 is 'a', code 1 is nothing. *)
  let lit_lens = no_codes 286 in
  lit_lens.(Char.code 'a') <- 1;
  let gap =
    crafted_stream ~size:1 ~lit_lens ~dist_lens:(no_codes 30)
      (String.make 8 '\255')
  in
  match Compress.inflate gap with
  | _ -> Alcotest.fail "incomplete table decoded a gap"
  | exception Compress.Corrupt _ -> ()

(* Kraft inequality: Huffman code lengths always describe a prefix code. *)
let qcheck_huffman_kraft =
  QCheck.Test.make ~name:"huffman lengths satisfy Kraft" ~count:200
    QCheck.(list_of_size Gen.(1 -- 64) (int_bound 1000))
    (fun freqs ->
      let lens = (Huffman.encoder (Array.of_list freqs)).Huffman.lens in
      let sum =
        Array.fold_left
          (fun acc l -> if l > 0 then acc +. (1. /. float_of_int (1 lsl l)) else acc)
          0. lens
      in
      sum <= 1.0 +. 1e-9 && Array.for_all (fun l -> l <= 15) lens)

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
        QCheck_alcotest.to_alcotest qcheck_compress_repetitive;
        QCheck_alcotest.to_alcotest qcheck_deflate_matches_reference;
        QCheck_alcotest.to_alcotest qcheck_inflate_inverts_reference;
        Alcotest.test_case "stored bytes tripwire" `Quick
          test_stored_bytes_tripwire;
        Alcotest.test_case "checkpoint bytes tripwire" `Quick
          test_checkpoint_bytes_tripwire;
        Alcotest.test_case "decoded checkpoints re-encode to their bytes"
          `Quick test_decoded_checkpoints_reencode;
        Alcotest.test_case "encoding allocates about the blobs" `Quick
          test_encoding_allocates_about_the_blobs;
        Alcotest.test_case "decoding allocates less than the blob" `Quick
          test_decoding_allocates_less_than_the_blob;
        Alcotest.test_case "restored frames copy before their first write"
          `Quick test_restored_frames_copy_before_writing;
        Alcotest.test_case "saved files tripwire" `Quick
          test_saved_files_tripwire;
        Alcotest.test_case "a cold open holds the file once" `Quick
          test_cold_open_holds_the_file_once;
        Alcotest.test_case "deflate allocates under 3 words a byte" `Quick
          test_deflate_allocation;
        Alcotest.test_case "index counts bounded by their bytes" `Quick
          test_index_counts_bounded;
        Alcotest.test_case "declared size beyond the body" `Quick
          test_inflate_size_bound;
        Alcotest.test_case "empty or incomplete code table" `Quick
          test_inflate_empty_code_table ] );
    ( "trace.codec",
      [ Alcotest.test_case "varint" `Quick test_codec_varint;
        Alcotest.test_case "image check reads as decode" `Quick
          test_image_check_reads_as_decode;
        Alcotest.test_case "string list" `Quick test_codec_string_list;
        Alcotest.test_case "get_bytes copies its payload once" `Quick
          test_codec_get_bytes_copies_once;
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
        QCheck_alcotest.to_alcotest qcheck_inflate_robust;
        QCheck_alcotest.to_alcotest qcheck_snapshot_decode_robust;
        QCheck_alcotest.to_alcotest qcheck_varint_decode_robust;
        QCheck_alcotest.to_alcotest qcheck_huffman_kraft;
        QCheck_alcotest.to_alcotest qcheck_compress_deterministic ] ) ]
