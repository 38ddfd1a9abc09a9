(* Pluggable trace IO with deterministic fault injection (see io.mli).

   Writers and readers are closure records, so the trace store never
   knows whether it is talking to a real file, an in-memory buffer, or
   a fault-injecting wrapper around either. *)

let tm_fault = Telemetry.counter "io.fault_injected"

type error = { op : string; path : string; reason : string }

exception Io_error of error

let fail ~op ~path reason = raise (Io_error { op; path; reason })

let pp_error ppf e = Fmt.pf ppf "%s: %s failed: %s" e.path e.op e.reason

type fault =
  | Write_enospc_after of int
  | Write_crash_at of int
  | Write_short_at of int
  | Write_bit_flip of int
  | Read_truncate_at of int
  | Read_bit_flip of int
  | Read_fail_at of int

(* ---- writers --------------------------------------------------------- *)

type writer = {
  w_path : string;
  w_emit : string -> int -> int -> unit;
      (* forward [len] bytes of [s] from [pos]; may raise Io_error *)
  w_finish : unit -> unit;
  mutable w_count : int; (* bytes accepted by this layer *)
  mutable w_closed : bool;
}

let written w = w.w_count

let write_sub w s ~pos ~len =
  if w.w_closed then fail ~op:"write" ~path:w.w_path "writer is closed";
  w.w_emit s pos len;
  w.w_count <- w.w_count + len

let write w s = write_sub w s ~pos:0 ~len:(String.length s)

let close_writer w =
  if not w.w_closed then begin
    w.w_closed <- true;
    w.w_finish ()
  end

let buffer_writer ?(path = "<buffer>") b =
  { w_path = path;
    w_emit = Buffer.add_substring b;
    w_finish = ignore;
    w_count = 0;
    w_closed = false }

let file_writer path =
  match open_out_bin path with
  | oc ->
    { w_path = path;
      w_emit =
        (fun s pos len ->
          try output_substring oc s pos len
          with Sys_error m -> fail ~op:"write" ~path m);
      w_finish = (fun () -> try close_out oc with Sys_error m -> fail ~op:"close" ~path m);
      w_count = 0;
      w_closed = false }
  | exception Sys_error m -> fail ~op:"open" ~path m

let mkdir_if_missing path =
  if not (Sys.file_exists path) then
    try Sys.mkdir path 0o755 with Sys_error m -> fail ~op:"mkdir" ~path m

(* Flip one bit of byte [at] (bit position derived from the offset so
   different offsets hit different bits, deterministically). *)
let flip_byte b ~at =
  let bit = at mod 8 in
  Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor (1 lsl bit)))

(* The earliest write cut among the plan's faults inside [off, off+len),
   with its reason; [Some (cut, reason)] means bytes below [cut] still
   land. *)
let write_cut faults ~off ~len =
  List.fold_left
    (fun acc f ->
      let candidate =
        match f with
        | Write_enospc_after n when n < off + len -> Some (max n off, "ENOSPC")
        | Write_crash_at k when k < off + len ->
          Some (max k off, "simulated crash (writer killed)")
        | Write_short_at k when k < off + len -> Some (max k off, "short write")
        | _ -> None
      in
      match (acc, candidate) with
      | None, c -> c
      | Some _, None -> acc
      | Some (a, _), Some (b, _) -> if b < a then candidate else acc)
    None faults

let inject faults inner =
  let dead = ref None in
  let emit s pos len =
    (match !dead with
    | Some reason -> fail ~op:"write" ~path:inner.w_path reason
    | None -> ());
    let off = inner.w_count in
    let forward_len, failure =
      match write_cut faults ~off ~len with
      | Some (cut, reason) -> (cut - off, Some reason)
      | None -> (len, None)
    in
    if forward_len > 0 then begin
      let b = Bytes.of_string (String.sub s pos forward_len) in
      List.iter
        (function
          | Write_bit_flip at when at >= off && at < off + forward_len ->
            Telemetry.incr tm_fault;
            flip_byte b ~at:(at - off)
          | _ -> ())
        faults;
      write inner (Bytes.to_string b)
    end;
    match failure with
    | None -> ()
    | Some reason ->
      Telemetry.incr tm_fault;
      dead := Some reason;
      fail ~op:"write" ~path:inner.w_path reason
  in
  { w_path = inner.w_path;
    w_emit = emit;
    w_finish = (fun () -> close_writer inner);
    w_count = 0;
    w_closed = false }

(* ---- readers --------------------------------------------------------- *)

type reader = { r_path : string; r_all : unit -> string }

let reader_path r = r.r_path
let read_all r = r.r_all ()

let string_reader ?(path = "<memory>") s = { r_path = path; r_all = (fun () -> s) }

let file_reader path =
  { r_path = path;
    r_all =
      (fun () ->
        try In_channel.with_open_bin path In_channel.input_all
        with Sys_error m -> fail ~op:"read" ~path m) }

let inject_reader faults inner =
  let all () =
    let s = inner.r_all () in
    (* A failing read aborts before delivering anything usable. *)
    List.iter
      (function
        | Read_fail_at n when String.length s > n ->
          Telemetry.incr tm_fault;
          fail ~op:"read" ~path:inner.r_path
            (Fmt.str "read error after %d bytes" n)
        | _ -> ())
      faults;
    let s =
      List.fold_left
        (fun s -> function
          | Read_truncate_at n when String.length s > n ->
            Telemetry.incr tm_fault;
            String.sub s 0 n
          | _ -> s)
        s faults
    in
    let b = Bytes.of_string s in
    List.iter
      (function
        | Read_bit_flip at when at < Bytes.length b ->
          Telemetry.incr tm_fault;
          flip_byte b ~at
        | _ -> ())
      faults;
    Bytes.to_string b
  in
  { r_path = inner.r_path; r_all = all }
