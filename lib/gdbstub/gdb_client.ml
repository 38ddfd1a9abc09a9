(* A minimal synchronous RSP client (see the mli). *)

module P = Gdb_packet
module T = Gdb_transport

exception Protocol_error of string

type t = { conn : P.conn; pump : unit -> unit }

(* Fruitless poll+pump rounds a request waits before it fails. *)
let max_spins = 1000

let create ~pump tr = { conn = P.conn ~rle:false tr; pump }

let request t payload =
  P.send t.conn payload;
  let spins = ref 0 in
  let rec await () =
    match P.poll t.conn with
    | `Packet reply ->
      if payload = "QStartNoAckMode" && reply = "OK" then
        P.set_ack_mode t.conn false;
      reply
    | `Eof -> raise (Protocol_error (Printf.sprintf "EOF awaiting reply to %S" payload))
    | `Empty ->
      incr spins;
      if !spins > max_spins then
        raise
          (Protocol_error
             (Printf.sprintf "no reply to %S after %d polls" payload max_spins));
      t.pump ();
      await ()
  in
  await ()

let monitor t cmd =
  let reply = request t ("qRcmd," ^ P.to_hex cmd) in
  if reply = "" || reply = "OK" then reply
  else
    match P.of_hex reply with
    | Ok text ->
      let n = String.length text in
      if n > 0 && text.[n - 1] = '\n' then String.sub text 0 (n - 1) else text
    | Error _ -> reply (* Exx and friends pass through untouched *)

let close t = (P.transport t.conn).T.close ()
