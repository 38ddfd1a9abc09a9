(* RSP packet layer: framing, checksums, escaping, run-length encoding
   and per-connection ack bookkeeping (see the mli for the wire
   grammar).  Everything here is byte-exact: the property tests
   round-trip arbitrary payloads through encode_body/decode_body and
   the session tests assert whole wire frames. *)

module T = Gdb_transport

(* ---- body codec ------------------------------------------------------ *)

let is_special = function '$' | '#' | '}' | '*' -> true | _ -> false

let checksum s =
  let sum = ref 0 in
  String.iter (fun c -> sum := (!sum + Char.code c) land 0xff) s;
  !sum

(* Run counts that would encode as a character the stream cannot carry
   raw: '#'(6) '$'(7) '*'(13) '+'(14) '-'(16) '}'(96). *)
let bad_count = function 6 | 7 | 13 | 14 | 16 | 96 -> true | _ -> false

let encode_body ?(rle = false) s =
  let n = String.length s in
  let b = Buffer.create (n + 8) in
  let emit_lit c =
    if is_special c then begin
      Buffer.add_char b '}';
      Buffer.add_char b (Char.chr (Char.code c lxor 0x20))
    end
    else Buffer.add_char b c
  in
  let i = ref 0 in
  while !i < n do
    let c = s.[!i] in
    let j = ref (!i + 1) in
    while !j < n && s.[!j] = c do incr j done;
    let run = !j - !i in
    if rle && run >= 4 && not (is_special c) then begin
      Buffer.add_char b c;
      (* Chunked: "c*N*M" decodes as c repeated 1+N+M times, because
         each '*' repeats the previously *decoded* byte. *)
      let rem = ref (run - 1) in
      while !rem > 0 do
        if !rem < 3 then begin
          Buffer.add_char b c;
          decr rem
        end
        else begin
          let r = ref (min !rem 97) in
          while bad_count !r do decr r done;
          Buffer.add_char b '*';
          Buffer.add_char b (Char.chr (!r + 29));
          rem := !rem - !r
        end
      done;
      i := !j
    end
    else begin
      emit_lit c;
      incr i
    end
  done;
  Buffer.contents b

exception Decode of string

let decode_body s =
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  try
    while !i < n do
      (match s.[!i] with
      | '}' ->
        if !i + 1 >= n then raise (Decode "dangling escape");
        Buffer.add_char b (Char.chr (Char.code s.[!i + 1] lxor 0x20));
        i := !i + 2
      | '*' ->
        if Buffer.length b = 0 then raise (Decode "run with no preceding byte");
        if !i + 1 >= n then raise (Decode "dangling run count");
        let cnt = Char.code s.[!i + 1] - 29 in
        if cnt < 3 || cnt > 97 then
          raise (Decode (Printf.sprintf "run count %d out of range" cnt));
        let prev = Buffer.nth b (Buffer.length b - 1) in
        for _ = 1 to cnt do
          Buffer.add_char b prev
        done;
        i := !i + 2
      | ('$' | '#') as c ->
        raise (Decode (Printf.sprintf "unescaped '%c' in body" c))
      | c ->
        Buffer.add_char b c;
        incr i)
    done;
    Ok (Buffer.contents b)
  with Decode msg -> Error msg

let frame ?rle payload =
  let body = encode_body ?rle payload in
  Printf.sprintf "$%s#%02x" body (checksum body)

(* ---- hex helpers ----------------------------------------------------- *)

let to_hex s =
  let b = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents b

let hex_digit = function
  | '0' .. '9' as c -> Some (Char.code c - Char.code '0')
  | 'a' .. 'f' as c -> Some (Char.code c - Char.code 'a' + 10)
  | 'A' .. 'F' as c -> Some (Char.code c - Char.code 'A' + 10)
  | _ -> None

let of_hex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else begin
    let b = Bytes.create (n / 2) in
    let rec go i =
      if 2 * i >= n then Ok (Bytes.to_string b)
      else
        match (hex_digit s.[2 * i], hex_digit s.[(2 * i) + 1]) with
        | Some hi, Some lo ->
          Bytes.set b i (Char.chr ((hi lsl 4) lor lo));
          go (i + 1)
        | _ -> Error (Printf.sprintf "bad hex digit at offset %d" (2 * i))
    in
    go 0
  end

let hex64_le v =
  let b = Buffer.create 16 in
  for byte = 0 to 7 do
    Buffer.add_string b (Printf.sprintf "%02x" ((v lsr (8 * byte)) land 0xff))
  done;
  Buffer.contents b

let int_of_hex64_le s =
  if String.length s <> 16 then Error "want exactly 16 hex chars"
  else
    match of_hex s with
    | Error _ as e -> e
    | Ok bytes ->
      let v = ref 0 in
      for i = 7 downto 0 do
        v := (!v lsl 8) lor Char.code bytes.[i]
      done;
      Ok !v

let parse_hex_int s =
  let s = String.trim s in
  if s = "" then None
  else begin
    let neg, s =
      if s.[0] = '-' then (true, String.sub s 1 (String.length s - 1))
      else (false, s)
    in
    let s =
      if String.length s > 2 && s.[0] = '0' && (s.[1] = 'x' || s.[1] = 'X')
      then String.sub s 2 (String.length s - 2)
      else s
    in
    if s = "" then None
    else begin
      let v = ref 0 and ok = ref true in
      String.iter
        (fun c ->
          match hex_digit c with
          | Some d -> v := (!v lsl 4) lor d
          | None -> ok := false)
        s;
      if !ok then Some (if neg then - !v else !v) else None
    end
  end

(* ---- connections ----------------------------------------------------- *)

type conn = {
  tr : T.t;
  rle : bool;
  mutable ack : bool;
  mutable pending : string; (* received bytes not yet parsed into frames *)
  mutable last_sent : string option; (* wire frame, for '-' retransmit *)
  mutable at_eof : bool;
}

let conn ?(rle = false) tr =
  { tr; rle; ack = true; pending = ""; last_sent = None; at_eof = false }

let set_ack_mode c on = c.ack <- on
let transport c = c.tr

let send c payload =
  let f = frame ~rle:c.rle payload in
  c.last_sent <- Some f;
  c.tr.T.send f

(* Parse one frame out of [pending], handling acks and junk in front of
   it.  Returns the decoded payload, or None if no complete frame is
   buffered yet.  Bad frames (checksum, encoding) are NAK'd and skipped
   — the peer retransmits, and the retransmission is served like any
   other frame ("re-served"). *)
let rec extract c =
  let s = c.pending in
  let n = String.length s in
  if n = 0 then None
  else
    match s.[0] with
    | '+' ->
      c.last_sent <- None;
      c.pending <- String.sub s 1 (n - 1);
      extract c
    | '-' ->
      (match c.last_sent with Some f -> c.tr.T.send f | None -> ());
      c.pending <- String.sub s 1 (n - 1);
      extract c
    | '$' -> (
      match String.index_from_opt s 0 '#' with
      | None -> None (* body still in flight *)
      | Some hash when hash + 2 >= n -> None (* checksum still in flight *)
      | Some hash ->
        let body = String.sub s 1 (hash - 1) in
        let ck = String.sub s (hash + 1) 2 in
        c.pending <- String.sub s (hash + 3) (n - hash - 3);
        let good =
          match parse_hex_int ck with
          | Some v when v = checksum body -> (
            match decode_body body with Ok p -> Some p | Error _ -> None)
          | _ -> None
        in
        (match good with
        | Some payload ->
          if c.ack then c.tr.T.send "+";
          Some payload
        | None ->
          if c.ack then c.tr.T.send "-";
          extract c))
    | _ ->
      (* Interrupt bytes (0x03) and line noise outside a frame: skip.
         Replay is never "running" from the stub's point of view, so
         there is nothing for an interrupt to stop. *)
      c.pending <- String.sub s 1 (n - 1);
      extract c

let rec poll c =
  match extract c with
  | Some p -> `Packet p
  | None ->
    if c.at_eof then `Eof
    else (
      match c.tr.T.recv () with
      | T.Data bytes ->
        c.pending <- c.pending ^ bytes;
        poll c
      | T.Empty -> `Empty
      | T.Eof ->
        c.at_eof <- true;
        `Eof)
