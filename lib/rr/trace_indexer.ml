(* One-shot index construction: a single forward replay of the trace
   with the address-space write observer installed, noting per frame the
   pc, the pages written, and the virtual clock — plus durable
   checkpoint images every [checkpoint_every] frames (and at both ends)
   so a later session seeks in O(delta) from a cold open.

   The pass costs one full replay; the point is to pay it once and store
   the result in the trace ('P', 'W' and 'K' records). *)

module K = Kernel
module A = Addr_space

let tm_build = Telemetry.counter "index.build"
let tm_build_span = Telemetry.span "index.build_time"
let tm_encoded_bytes = Telemetry.counter "index.encoded_bytes"

(* About 64 durable checkpoints a trace by default.  The blobs name
   their frames, locals and text runs in the index's one pool, so a
   checkpoint costs its fields and the windows that changed since the
   last one; tests shrink the interval explicitly. *)
let default_every n = max 1 ((n + 63) / 64)

let build_and_attach ?checkpoint_every trace =
  Telemetry.incr tm_build;
  Timeline.scope "index.session" @@ fun () ->
  Telemetry.timed tm_build_span (fun () ->
      let n = Trace.n_events trace in
      let every =
        match checkpoint_every with
        | Some e -> max 1 e
        | None -> default_every n
      in
      let r = Replayer.start trace in
      let pool = Trace_index.Pool.create () in
      let b = Trace_index.builder ~clock0:(K.now (Replayer.kernel r)) ~pool in
      let checkpoint () =
        let frame = Replayer.cursor_index r in
        let snap = Replayer.snapshot r in
        let blob =
          Timeline.scope "index.encode" (fun () -> Snapshot.encode pool snap)
        in
        Telemetry.add tm_encoded_bytes (String.length blob);
        Trace_index.note_checkpoint b ~frame ~blob
      in
      let touched : (int, unit) Hashtbl.t = Hashtbl.create 64 in
      Timeline.set_virtual_clock (fun () -> K.now (Replayer.kernel r));
      Fun.protect
        ~finally:(fun () ->
          A.clear_write_observer ();
          Timeline.clear_virtual_clock ())
        (fun () ->
          checkpoint ();
          A.set_write_observer (fun _space ~addr ~len ->
              if len > 0 then
                for p = Mem.page_index addr to Mem.page_index (addr + len - 1) do
                  Hashtbl.replace touched p ()
                done);
          while not (Replayer.at_end r) do
            Hashtbl.reset touched;
            let e = Replayer.step r in
            let pages = Hashtbl.fold (fun p () acc -> p :: acc) touched [] in
            Trace_index.note_frame b e ~pages
              ~clock:(K.now (Replayer.kernel r));
            let pos = Replayer.cursor_index r in
            if pos = n || pos mod every = 0 then checkpoint ()
          done);
      let ix = Trace_index.finish b in
      Trace.set_index trace ix;
      ix)
