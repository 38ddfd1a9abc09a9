(* Tests for the interception library's guts: the guest-buffer record
   codec, patchability rules, layout invariants, and the RDRAND hook
   encoding. *)

module K = Kernel
module T = Task

(* A minimal task whose address space has the syscallbuf pages mapped. *)
let make_buf_task () =
  let k = K.create ~seed:5 () in
  Vfs.mkdir_p (K.vfs k) "/bin";
  let b = Guest.create () in
  Guest.emit b (Guest.sys_exit_group 0);
  K.install_image k ~path:"/bin/x" (Guest.build b ~name:"x" ());
  let t = K.spawn k ~path:"/bin/x" ~traced:true () in
  Syscallbuf.inject_rr_page k t;
  ignore
    (Syscallbuf.setup_task (Syscallbuf.locals ()) k t
       ~scratch:(Layout.scratch_for ~slot:0) ~buf:(Layout.syscallbuf_for ~slot:0)
       ~is_replay:false);
  (k, t)

let sample_records =
  [ { Event.br_nr = Sysno.read;
      br_result = 13;
      br_writes = [ { Event.addr = 0x120000; data = "hello, world!" } ];
      br_clone = None;
      br_aborted = false };
    { Event.br_nr = Sysno.gettimeofday;
      br_result = 424242;
      br_writes = [];
      br_clone = None;
      br_aborted = false };
    { Event.br_nr = Sysno.read;
      br_result = 65536;
      br_writes = [];
      br_clone =
        Some { Event.cr_path = "cloned/100"; cr_off = 8192; cr_addr = 0x4000; cr_len = 65536 };
      br_aborted = false };
    { Event.br_nr = Sysno.recvfrom;
      br_result = 0;
      br_writes = [];
      br_clone = None;
      br_aborted = true } ]

let test_guest_record_roundtrip () =
  let _, t = make_buf_task () in
  List.iter Syscallbuf.(append_record t) sample_records;
  let parsed = Syscallbuf.parse_all t in
  Alcotest.(check int) "count" (List.length sample_records)
    (List.length parsed);
  List.iter2
    (fun a b ->
      Alcotest.(check bool)
        (Printf.sprintf "record %s roundtrips" (Sysno.name a.Event.br_nr))
        true (a = b))
    sample_records parsed

let test_load_records_replay_layout () =
  let _, t = make_buf_task () in
  Syscallbuf.load_records t sample_records;
  (* load resets the read cursor and sets fill to the serialized size *)
  Alcotest.(check bool) "fill > 0" true (Syscallbuf.buffer_fill t > 0);
  let parsed = Syscallbuf.parse_all t in
  Alcotest.(check bool) "same records" true (parsed = sample_records)

let qcheck_guest_record_roundtrip =
  let gen =
    QCheck.Gen.(
      map
        (fun (nr, result, writes, aborted) ->
          { Event.br_nr = nr land 0x3f;
            br_result = result;
            br_writes =
              List.map
                (fun (a, d) -> { Event.addr = a land 0xffffff; data = d })
                writes;
            br_clone = None;
            br_aborted = aborted })
        (quad (int_bound 50) int
           (list_size (0 -- 4) (pair int (string_size (0 -- 80))))
           bool))
  in
  QCheck.Test.make ~name:"guest buffer record roundtrip (random)" ~count:100
    (QCheck.make gen) (fun record ->
      let _, t = make_buf_task () in
      Syscallbuf.append_record t record;
      Syscallbuf.parse_all t = [ record ])

let test_reset_clears () =
  let _, t = make_buf_task () in
  List.iter (Syscallbuf.append_record t) sample_records;
  Syscallbuf.reset t;
  Alcotest.(check int) "empty after reset" 0 (Syscallbuf.buffer_fill t);
  Alcotest.(check (list reject)) "no records"
    []
    (List.map (fun _ -> ()) (Syscallbuf.parse_all t))

(* Patchability (paper §3.1). *)
let test_patchable_rules () =
  let _, t = make_buf_task () in
  let sp = t.T.cpu.Cpu.space in
  let site = 0x2000 in
  let set_pair a b =
    Addr_space.text_set sp site a;
    Addr_space.text_set sp (site + 1) b
  in
  set_pair Insn.Syscall (Insn.Mov (7, Insn.Reg 0));
  Alcotest.(check bool) "mov follower ok" true (Syscallbuf.can_patch t ~site);
  set_pair Insn.Syscall (Insn.Jmp 0x2000);
  Alcotest.(check bool) "jmp follower not patchable" false
    (Syscallbuf.can_patch t ~site);
  set_pair Insn.Syscall Insn.Syscall;
  Alcotest.(check bool) "syscall follower not patchable" false
    (Syscallbuf.can_patch t ~site);
  (* run-time-written code is never patched *)
  set_pair Insn.Syscall Insn.Nop;
  Addr_space.text_write sp site Insn.Syscall;
  Alcotest.(check bool) "written text not patchable" false
    (Syscallbuf.can_patch t ~site);
  (* the RR page itself is never patched *)
  Alcotest.(check bool) "rr page not patchable" false
    (Syscallbuf.can_patch t ~site:Layout.untraced_syscall_insn)

let test_patch_site_kinds () =
  let _, t = make_buf_task () in
  let sp = t.T.cpu.Cpu.space in
  Addr_space.text_set sp 0x2000 Insn.Syscall;
  Syscallbuf.patch_site t ~site:0x2000;
  (match Addr_space.text_get sp 0x2000 with
  | Some (Insn.Hook n) ->
    Alcotest.(check int) "syscall hook" Syscallbuf.hook_number n
  | _ -> Alcotest.fail "expected hook");
  Addr_space.text_set sp 0x2001 (Insn.Rdrand 9);
  Syscallbuf.patch_site t ~site:0x2001;
  match Addr_space.text_get sp 0x2001 with
  | Some (Insn.Hook n) ->
    Alcotest.(check bool) "rdrand hook" true (Syscallbuf.is_rdrand_hook n);
    Alcotest.(check int) "register preserved" 9
      (Syscallbuf.reg_of_rdrand_hook n)
  | _ -> Alcotest.fail "expected rdrand hook"

let test_find_rdrand_sites () =
  let _, t = make_buf_task () in
  let sp = t.T.cpu.Cpu.space in
  Addr_space.text_set sp 0x3000 (Insn.Rdrand 1);
  Addr_space.text_set sp 0x3005 (Insn.Rdrand 2);
  let sites = Syscallbuf.find_rdrand_sites t in
  Alcotest.(check bool) "both found" true
    (List.mem 0x3000 sites && List.mem 0x3005 sites)

(* Two threads of one space take turns on its thread-locals page (§3.6):
   each finds its own locals there when it is switched in. *)
let test_locals_swap_roundtrip () =
  let k, t = make_buf_task () in
  let l = Syscallbuf.locals () in
  let tid_in_page () =
    Addr_space.read_u64 ~force:true t.T.cpu.Cpu.space
      (Layout.thread_locals_page + Layout.tl_tid)
  in
  Syscallbuf.switch_locals l k t;
  let sibling =
    K.do_clone k t ~flags:(Sysno.clone_vm lor Sysno.clone_thread)
      ~child_sp:0 ()
  in
  ignore
    (Syscallbuf.setup_task l k sibling ~scratch:(Layout.scratch_for ~slot:1)
       ~buf:(Layout.syscallbuf_for ~slot:1) ~is_replay:false);
  Alcotest.(check int) "sibling's locals set up" sibling.T.tid (tid_in_page ());
  Syscallbuf.switch_locals l k t;
  Alcotest.(check int) "first thread's locals restored" t.T.tid
    (tid_in_page ());
  Syscallbuf.switch_locals l k sibling;
  Alcotest.(check int) "sibling's locals restored" sibling.T.tid
    (tid_in_page ())

(* Layout invariants: per-slot areas must not collide. *)
let test_layout_slots_disjoint () =
  for slot = 0 to 30 do
    let s1 = Layout.scratch_for ~slot and s2 = Layout.scratch_for ~slot:(slot + 1) in
    Alcotest.(check bool) "scratch slots disjoint" true
      (s1 + Layout.scratch_size <= s2);
    let b1 = Layout.syscallbuf_for ~slot
    and b2 = Layout.syscallbuf_for ~slot:(slot + 1) in
    Alcotest.(check bool) "buffer slots disjoint" true
      (b1 + Layout.syscallbuf_size <= b2)
  done;
  (* scratch and buffer never collide within or across slots *)
  for slot = 0 to 200 do
    let s = Layout.scratch_for ~slot and b = Layout.syscallbuf_for ~slot in
    Alcotest.(check bool) "scratch below its buffer" true
      (s + Layout.scratch_size <= b);
    Alcotest.(check bool) "buffer inside the slot" true
      (b + Layout.syscallbuf_size <= Layout.slot_base + ((slot + 1) * Layout.slot_stride));
    Alcotest.(check bool) "below the stacks" true
      (b + Layout.syscallbuf_size <= Addr_space.stack_top - Image.default_stack_size || slot > 900)
  done

let test_rdrand_hook_encoding () =
  for r = 0 to Insn.num_regs - 1 do
    let h = Syscallbuf.rdrand_hook_of_reg r in
    Alcotest.(check bool) "is rdrand hook" true (Syscallbuf.is_rdrand_hook h);
    Alcotest.(check int) "register roundtrip" r
      (Syscallbuf.reg_of_rdrand_hook h);
    Alcotest.(check bool) "distinct from syscall hook" true
      (h <> Syscallbuf.hook_number)
  done

(* Regression (§2.3.6): a poll that timed out (result = 0) or failed
   writes no user memory — the model must not claim revents bytes the
   kernel never touched, or record would capture (and replay clobber)
   stale data. *)
let test_poll_outputs_result_bounded () =
  let args = [| 0x200000; 3; 100; 0; 0; 0 |] in
  Alcotest.(check int) "timed-out poll writes nothing" 0
    (List.length (Syscall_model.outputs ~nr:Sysno.poll ~args ~result:0));
  Alcotest.(check int) "failed poll writes nothing" 0
    (List.length (Syscall_model.outputs ~nr:Sysno.poll ~args ~result:(-4)));
  let outs = Syscall_model.outputs ~nr:Sysno.poll ~args ~result:2 in
  Alcotest.(check int) "ready poll records every revents slot" 3
    (List.length outs);
  List.iteri
    (fun i { Syscall_model.out_addr; out_len } ->
      Alcotest.(check int) "revents slot address"
        (0x200000 + (24 * i) + 16)
        out_addr;
      Alcotest.(check int) "revents slot length" 8 out_len)
    outs

(* §3.4 stop elision is driven by [Syscall_model.elidable]: it must
   only claim syscalls whose success provably writes no user memory. *)
let test_elidable_rules () =
  let z = [| 0; 0; 0; 0; 0; 0 |] in
  let el nr args = Syscall_model.elidable ~nr ~args in
  Alcotest.(check bool) "write elidable" true (el Sysno.write z);
  Alcotest.(check bool) "close elidable" true (el Sysno.close z);
  Alcotest.(check bool) "read not elidable" false (el Sysno.read z);
  Alcotest.(check bool) "wait4(NULL status) elidable" true (el Sysno.wait4 z);
  Alcotest.(check bool) "wait4(&status) not elidable" false
    (el Sysno.wait4 [| -1; 0x130000; 0; 0; 0; 0 |]);
  Alcotest.(check bool) "clone not elidable (special frame)" false
    (el Sysno.clone z);
  Alcotest.(check bool) "execve not elidable (special frame)" false
    (el Sysno.execve z);
  Alcotest.(check bool) "sigreturn not elidable" false
    (el Sysno.rt_sigreturn z);
  Alcotest.(check bool) "ptrace not elidable (emulated)" false
    (el Sysno.ptrace z)

let suites =
  [ ( "rr.syscallbuf.unit",
      [ Alcotest.test_case "guest record roundtrip" `Quick
          test_guest_record_roundtrip;
        Alcotest.test_case "load_records layout" `Quick
          test_load_records_replay_layout;
        QCheck_alcotest.to_alcotest qcheck_guest_record_roundtrip;
        Alcotest.test_case "reset clears" `Quick test_reset_clears;
        Alcotest.test_case "patchability rules" `Quick test_patchable_rules;
        Alcotest.test_case "patch kinds" `Quick test_patch_site_kinds;
        Alcotest.test_case "find rdrand sites" `Quick test_find_rdrand_sites;
        Alcotest.test_case "locals swap" `Quick test_locals_swap_roundtrip;
        Alcotest.test_case "layout slots disjoint" `Quick
          test_layout_slots_disjoint;
        Alcotest.test_case "rdrand hook encoding" `Quick
          test_rdrand_hook_encoding;
        Alcotest.test_case "poll outputs bounded by result" `Quick
          test_poll_outputs_result_bounded;
        Alcotest.test_case "elidable rules" `Quick test_elidable_rules ] ) ]
