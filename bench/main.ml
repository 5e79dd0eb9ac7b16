(* Benchmark harness: regenerates every measured artifact of the paper's
   evaluation (Figures 4-7; Figures 1-3 are architecture diagrams), runs
   the design-choice ablations, and finishes with Bechamel
   micro-benchmarks of the core data structures.

   Scale: by default the TPC-B database uses a 4-TPS rating with every
   machine parameter scaled by the same factor, preserving the paper's
   cache << database << disk ratios; pass `--scale 10 --txns 100000` for
   the paper's full configuration (slow). `--quick` shrinks everything
   for a smoke run. *)

let usage () =
  print_endline
    "usage: bench [--quick] [--scale N] [--txns N] [--seeds N] [--skip-micro]";
  exit 1

type opts = {
  mutable tps_scale : int;
  mutable txns : int;
  mutable nseeds : int;
  mutable micro : bool;
}

let parse_args () =
  let o = { tps_scale = 4; txns = 20_000; nseeds = 3; micro = true } in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      o.tps_scale <- 2;
      o.txns <- 3_000;
      o.nseeds <- 1;
      go rest
    | "--scale" :: n :: rest ->
      o.tps_scale <- int_of_string n;
      go rest
    | "--txns" :: n :: rest ->
      o.txns <- int_of_string n;
      go rest
    | "--seeds" :: n :: rest ->
      o.nseeds <- int_of_string n;
      go rest
    | "--skip-micro" :: rest ->
      o.micro <- false;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  o

(* Bechamel micro-benchmarks ------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let mk_btree n =
    let clock = Clock.create () in
    let stats = Stats.create () in
    let cfg = Config.scaled ~factor:0.05 Config.default in
    let disks = Diskset.create clock stats cfg in
    let fs = Lfs.format disks clock stats cfg in
    let v = Lfs.vfs fs in
    let fd = v.Vfs.create "/bench" in
    let bt = Btree.attach clock stats cfg.Config.cpu (Pager.plain v fd) in
    for i = 0 to n - 1 do
      Btree.insert bt (Printf.sprintf "key%08d" i) "value"
    done;
    bt
  in
  let btree_find =
    let bt = mk_btree 10_000 in
    let i = ref 0 in
    Test.make ~name:"btree.find (10k keys)"
      (Staged.stage (fun () ->
           incr i;
           ignore (Btree.find bt (Printf.sprintf "key%08d" (!i * 7919 mod 10_000)))))
  in
  let btree_insert =
    let bt = mk_btree 1_000 in
    let i = ref 0 in
    Test.make ~name:"btree.insert (growing)"
      (Staged.stage (fun () ->
           incr i;
           Btree.insert bt (Printf.sprintf "new%08d" !i) "value"))
  in
  (* The TPC-B bulk load: ascending 10-byte keys, 100-byte values, every
     insert appending to the rightmost leaf. The full-size disk holds
     far more than a run inserts. *)
  let btree_append =
    let clock = Clock.create () in
    let stats = Stats.create () in
    let cfg = Config.default in
    let fs = Lfs.format (Diskset.create clock stats cfg) clock stats cfg in
    let v = Lfs.vfs fs in
    let bt = Btree.attach clock stats cfg.Config.cpu (Pager.plain v (v.Vfs.create "/bench")) in
    let value = String.make 100 '.' in
    let i = ref 0 in
    Test.make ~name:"btree.insert (appending, plain pager)"
      (Staged.stage (fun () ->
           incr i;
           Btree.insert bt (Printf.sprintf "%010d" !i) value))
  in
  let btree_update =
    let bt = mk_btree 10_000 in
    let i = ref 0 in
    Test.make ~name:"btree.update same size (10k keys)"
      (Staged.stage (fun () ->
           incr i;
           Btree.insert bt
             (Printf.sprintf "key%08d" (!i * 7919 mod 10_000))
             (if !i land 1 = 0 then "value" else "VALUE")))
  in
  (* A full 4 KB internal page of 10-byte keys: 255 items. *)
  let full_node =
    let items = List.init 255 (fun i -> (Printf.sprintf "key%07d" (i * 40), i + 2)) in
    let page = Bytes.create 4096 in
    Btree.encode_node page (Btree.Node { child0 = 1; items });
    page
  in
  let btree_child_at =
    let probes = Array.init 256 (fun i -> Printf.sprintf "key%07d" (i * 40 - 1)) in
    let i = ref 0 in
    Test.make ~name:"btree child_at (full page, 10-byte keys)"
      (Staged.stage (fun () ->
           incr i;
           ignore (Btree.child_at full_node probes.(!i land 255))))
  in
  (* The probe of an appending load: above every separator. *)
  let btree_child_at_above =
    let key = Printf.sprintf "key%07d" (255 * 40) in
    Test.make ~name:"btree child_at (full page, key above every item)"
      (Staged.stage (fun () -> ignore (Btree.child_at full_node key)))
  in
  let page_diff =
    (* One TPC-B record rewritten in the middle of a 4 KB page. *)
    let a = Bytes.init 4096 (fun i -> Char.chr (i land 0xff)) in
    let b = Bytes.copy a in
    Bytes.fill b 2000 100 '*';
    Test.make ~name:"libtp page diff (4 KB, 100 B changed)"
      (Staged.stage (fun () -> ignore (Libtp.diff_range a b)))
  in
  let lock_cycle =
    let clock = Clock.create () in
    let stats = Stats.create () in
    let lm = Lockmgr.create clock stats Config.default.Config.cpu in
    let i = ref 0 in
    Test.make ~name:"lockmgr.acquire+release_all"
      (Staged.stage (fun () ->
           incr i;
           ignore
             (Lockmgr.acquire lm ~txn:1
                (Lockmgr.Page (0, !i land 1023))
                Lockmgr.Exclusive);
           Lockmgr.release_all lm ~txn:1))
  in
  (* One TPC-B transaction's lock set at record grain, then commit: the
     same cycle as the benchmark runner's host.lockmgr_cycle_ns probe. *)
  let lock_tpcb_set =
    let lm =
      Lockmgr.create (Clock.create ()) (Stats.create ()) Config.default.Config.cpu
    in
    let i = ref 0 in
    Test.make ~name:"lockmgr TPC-B record lock set"
      (Staged.stage (fun () ->
           incr i;
           let i = !i in
           List.iter
             (fun o -> ignore (Lockmgr.acquire lm ~txn:1 o Lockmgr.Exclusive))
             [
               Lockmgr.Rec (1, i land 127, i land 31);
               Lockmgr.Rec (2, i land 15, i land 31);
               Lockmgr.Rec (3, i land 15, i land 31);
               Lockmgr.Rec (4, i land 1023, i land 63);
             ];
           Lockmgr.release_all lm ~txn:1))
  in
  (* Sixteen processes park on one condition and a seventeenth wakes
     them all, as group commit does at MPL 16. *)
  let sched_broadcast =
    let sched = Sched.create (Clock.create ()) in
    let c = Sched.condition () in
    Test.make ~name:"Sched 16 x wait, then broadcast"
      (Staged.stage (fun () ->
           for _ = 1 to 16 do
             Sched.spawn sched (fun () -> Sched.wait sched c)
           done;
           Sched.spawn sched (fun () -> Sched.broadcast sched c);
           Sched.run sched))
  in
  let logrec_codec =
    let r =
      {
        Logrec.txn = 42;
        prev = 1234;
        body =
          Logrec.Update
            {
              file = 7;
              page = 99;
              off = 100;
              pstream = -1;
              plsn = Logrec.null_lsn;
              before = Bytes.make 120 'b';
              after = Bytes.make 120 'a';
            };
      }
    in
    Test.make ~name:"logrec encode+decode"
      (Staged.stage (fun () ->
           match Logrec.decode (Logrec.encode r) 0 with
           | Some _ -> ()
           | None -> assert false))
  in
  let summary_codec =
    let entries = List.init 100 (fun i -> Layout.Data { inum = 7; lblock = i }) in
    let b = Bytes.make 4096 '\000' in
    Test.make ~name:"segment summary encode+decode"
      (Staged.stage (fun () ->
           Layout.write_summary b
             {
               Layout.seq = 9L;
               timestamp = 1.0;
               next_seg = 3;
               more = false;
               cold = false;
               payload_ck = 0;
               entries;
             };
           match Layout.read_summary b with
           | Some _ -> ()
           | None -> assert false))
  in
  (* The LFS segment path: the payload checksum of a commit's partial
     segment and of a whole segment, and the cleaner's read of a victim. *)
  let checksum_of ~name len =
    let b = Bytes.init len (fun i -> Char.chr ((i * 31 + 7) land 0xff)) in
    Test.make ~name (Staged.stage (fun () -> ignore (Layout.checksum_sub b 0 len)))
  in
  let segment_read =
    let cfg = Config.scaled ~factor:0.05 Config.default in
    let disks = Diskset.create (Clock.create ()) (Stats.create ()) cfg in
    let n = cfg.Config.fs.Config.segment_blocks in
    Test.make ~name:"diskset.read_run_view (one 512 KB segment)"
      (Staged.stage (fun () ->
           ignore (Diskset.read_run_view disks Layout.data_start n)))
  in
  (* The spindles wal-mpl16 boots: two striped data disks and a log
     spindle of 60 MB each. *)
  let diskset_create =
    let base = Config.scaled ~factor:0.2 Config.default in
    let cfg =
      { base with Config.fs = { base.Config.fs with Config.ndisks = 2; log_disk = true } }
    in
    Test.make ~name:"Diskset.create at wal-mpl16 geometry (2 data + log, 60 MB each)"
      (Staged.stage (fun () ->
           ignore (Diskset.create (Clock.create ()) (Stats.create ()) cfg)))
  in
  (* Crash recovery of wal-mpl16's log spindle: mount and fsck of a
     60 MB FFS holding one 2 000-block log file (two indirect blocks and
     the double-indirect block). The image is clean, so nothing is
     written and every run sees the same disk. *)
  let log_fsck =
    let base = Config.scaled ~factor:0.2 Config.default in
    let cfg = { base with Config.fs = { base.Config.fs with Config.log_disk = true } } in
    let clock = Clock.create () and stats = Stats.create () in
    let disk = (Diskset.log_disks (Diskset.create clock stats cfg)).(0) in
    let fs = Ffs.format disk clock stats cfg in
    let v = Ffs.vfs fs in
    let fd = v.Vfs.create "/log" in
    v.Vfs.write fd ~off:0 (Bytes.make (2000 * v.Vfs.block_size) 'x');
    Ffs.sync fs;
    Test.make ~name:"Ffs.mount + fsck of a wal-mpl16-sized log spindle"
      (Staged.stage (fun () -> ignore (Ffs.fsck (Ffs.mount disk clock stats cfg))))
  in
  (* One block written at the start of a segment slot nothing has
     written yet, the next slot each run; when a 60 MB spindle has none
     left, a new one is built, so each run also pays 1/119 of a build. *)
  let first_write =
    let cfg = Config.scaled ~factor:0.2 Config.default in
    let chunk = cfg.Config.fs.Config.segment_blocks in
    let fresh () = Diskset.create (Clock.create ()) (Stats.create ()) cfg in
    let disks = ref (fresh ()) and seg = ref 0 in
    let block = Bytes.make (Diskset.block_size !disks) 'x' in
    Test.make ~name:"first write into a never-written extent"
      (Staged.stage (fun () ->
           if Layout.data_start + ((!seg + 1) * chunk) > Diskset.nblocks !disks then begin
             disks := fresh ();
             seg := 0
           end;
           Diskset.write !disks (Layout.data_start + (!seg * chunk)) block;
           incr seg))
  in
  (* A 40-segment LFS whose space the cases below reclaim themselves: no
     syncer, no emergency cleaner, greedy victims whose survivors go to
     the hot head. *)
  let small_lfs () =
    let c = Config.default in
    let cfg =
      {
        c with
        Config.disk = { c.Config.disk with nblocks = Layout.data_start + (40 * 128) };
        fs =
          {
            c.Config.fs with
            cache_blocks = 512;
            syncer_interval_s = 1e9;
            cleaner_low_segments = 2;
            cleaner_policy = `Greedy;
            cleaner_segregate = false;
          };
      }
    in
    let clock = Clock.create () in
    let stats = Stats.create () in
    let fs = Lfs.format (Diskset.create clock stats cfg) clock stats cfg in
    let v = Lfs.vfs fs in
    let file name nblocks =
      let fd = v.Vfs.create name in
      v.Vfs.write fd ~off:0 (Bytes.make (nblocks * v.Vfs.block_size) 'x');
      Lfs.inum_of fs name
    in
    (fs, file)
  in
  let dirty fs inum nblocks =
    List.init nblocks (fun lblock ->
        let f = Lfs.get_page fs ~inum ~lblock in
        Lfs.page_dirty fs f;
        f)
  in
  (* A commit's flush: seven pages forced as one partial with its
     summary. When free segments run out, cleans (nearly all of dead
     segments) and a checkpoint reclaim them. *)
  let emit_partial =
    let fs, file = small_lfs () in
    let hot = file "/hot" 7 in
    Lfs.sync fs;
    Test.make ~name:"emit an 8-block hot partial"
      (Staged.stage (fun () ->
           if Lfs.free_segments fs < 4 then begin
             while Lfs.clean_once fs do () done;
             Lfs.checkpoint fs
           end;
           Lfs.force_frames fs (dirty fs hot 7)))
  in
  (* A clean consumes its victim, so each run makes the next one: it
     rewrites a 90-block hot file, cleans one victim and checkpoints,
     which frees the victim for reuse. The victim is then always the
     segment the run before wrote, where the hot file's old copy is dead
     and 26 of the 128 blocks are live: three 7-block cold files, their
     inode block and the blocks of the last checkpoint. *)
  let clean_victim =
    let fs, file = small_lfs () in
    List.iter (fun name -> ignore (file name 7)) [ "/c0"; "/c1"; "/c2" ];
    let hot = file "/hot" 90 in
    Lfs.sync fs;
    Test.make ~name:"clean one victim (512 KB, ~20 % live)"
      (Staged.stage (fun () ->
           Lfs.force_frames fs (dirty fs hot 90);
           ignore (Lfs.clean_once fs);
           Lfs.checkpoint fs))
  in
  (* One TPC-B account update as Tpcb runs it: a transaction attaches a
     fresh B-tree handle through the WAL pager at record grain, reads a
     100-byte balance, rewrites it at the same size and commits. *)
  let tpcb_update =
    let clock = Clock.create () in
    let stats = Stats.create () in
    let cfg =
      { Config.default with
        Config.fs = { Config.default.Config.fs with Config.lock_grain = `Record } }
    in
    let cpu = cfg.Config.cpu in
    let fs = Lfs.format (Diskset.create clock stats cfg) clock stats cfg in
    let v = Lfs.vfs fs in
    let fd = v.Vfs.create "/acct" in
    let load = Btree.attach clock stats cpu (Pager.plain v fd) in
    let key i = Printf.sprintf "%010d" i in
    for i = 0 to 999 do
      Btree.insert load (key i) (String.make 100 '0')
    done;
    let env = Libtp.open_env clock stats cfg v ~log_path:"/log" () in
    let i = ref 0 in
    Test.make ~name:"TPC-B update through a fresh B-tree handle (WAL pager, record grain)"
      (Staged.stage (fun () ->
           incr i;
           let k = key (!i * 7919 mod 1000) in
           let txn = Libtp.begin_txn env in
           let bt = Btree.attach clock stats cpu (Pager.wal env txn fd) in
           Option.iter (Btree.insert bt k) (Btree.find bt k);
           Libtp.commit env txn))
  in
  let cache_hit =
    let clock = Clock.create () in
    let stats = Stats.create () in
    let c = Cache.create clock stats Config.default.Config.cpu ~capacity:1024 in
    Cache.set_writeback c (fun _ -> ());
    for i = 0 to 1023 do
      ignore (Cache.insert c ~file:1 ~lblock:i (Bytes.make 64 'x'))
    done;
    let i = ref 0 in
    Test.make ~name:"buffer cache hit"
      (Staged.stage (fun () ->
           incr i;
           ignore (Cache.lookup c ~file:1 ~lblock:(!i land 1023))))
  in
  (* A miss that brings in a block: a fresh 4 KB buffer handed to the
     cache, which evicts its least recent (clean) frame. *)
  let cache_miss =
    let c =
      Cache.create (Clock.create ()) (Stats.create ()) Config.default.Config.cpu
        ~capacity:1024
    in
    Cache.set_writeback c (fun _ -> ());
    let i = ref 0 in
    Test.make ~name:"cache miss: insert a fresh 4 KB block"
      (Staged.stage (fun () ->
           incr i;
           ignore (Cache.insert c ~file:1 ~lblock:!i (Bytes.make 4096 '\000'))))
  in
  (* The same miss as a file system takes it now: the buffer comes from
     the block pool, zeroed as the fresh one is, and the evicted frame's
     buffer goes back there for the next miss. *)
  let cache_miss_recycled =
    let c =
      Cache.create (Clock.create ()) (Stats.create ()) Config.default.Config.cpu
        ~capacity:1024
    in
    Cache.set_writeback c (fun _ -> ());
    let i = ref 0 in
    Test.make ~name:"cache miss into a recycled buffer"
      (Staged.stage (fun () ->
           incr i;
           ignore (Cache.insert c ~file:1 ~lblock:!i (Blockpool.zeroed 4096))))
  in
  (* Hits spread over many files, as the LFS cache holds them. *)
  let cache_hit_files =
    let c =
      Cache.create (Clock.create ()) (Stats.create ()) Config.default.Config.cpu
        ~capacity:1024
    in
    Cache.set_writeback c (fun _ -> ());
    for i = 0 to 1023 do
      ignore (Cache.insert c ~file:(i land 15) ~lblock:(i lsr 4) (Bytes.make 64 'x'))
    done;
    let i = ref 0 in
    Test.make ~name:"buffer cache hit (16 files)"
      (Staged.stage (fun () ->
           incr i;
           let k = !i * 7 land 1023 in
           ignore (Cache.lookup c ~file:(k land 15) ~lblock:(k lsr 4))))
  in
  (* Every layer records into Stats; Cpu.charge is the hottest caller. *)
  let stats_tests =
    let stats = Stats.create () in
    let counter = Stats.counter "bench.counter" in
    let clock = Clock.create () in
    let cpu = Config.default.Config.cpu in
    [
      Test.make ~name:"Stats.incr (by name)"
        (Staged.stage (fun () -> Stats.incr stats "bench.counter"));
      Test.make ~name:"Stats.bump (by handle)"
        (Staged.stage (fun () -> Stats.bump stats counter));
      Test.make ~name:"Cpu.charge"
        (Staged.stage (fun () -> Cpu.charge clock stats cpu Cpu.Lock_op));
    ]
  in
  [
    btree_find;
    btree_insert;
    btree_append;
    btree_update;
    tpcb_update;
    btree_child_at;
    btree_child_at_above;
    page_diff;
    lock_cycle;
    lock_tpcb_set;
    sched_broadcast;
    logrec_codec;
    summary_codec;
    checksum_of ~name:"LFS checksum_sub (28 KB partial)" (28 * 1024);
    checksum_of ~name:"LFS checksum_sub (512 KB segment)" (512 * 1024);
    segment_read;
    diskset_create;
    log_fsck;
    first_write;
    emit_partial;
    clean_victim;
    cache_hit;
    cache_hit_files;
    cache_miss;
    cache_miss_recycled;
  ]
  @ stats_tests

let run_micro () =
  let open Bechamel in
  Expcommon.pp_header "Micro-benchmarks (Bechamel; real time per operation)";
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      Hashtbl.iter
        (fun name result ->
          let v = Analyze.one ols instance result in
          match Analyze.OLS.estimates v with
          | Some (t :: _) -> Printf.printf "%-42s %12.0f ns/op\n%!" name t
          | _ -> Printf.printf "%-42s (no estimate)\n%!" name)
        results)
    (List.map (fun t -> Test.make_grouped ~name:"micro" [ t ]) (micro_tests ()))

let () =
  let o = parse_args () in
  let seeds = List.init o.nseeds (fun i -> i + 1) in
  Printf.printf
    "Reproduction benches for: Seltzer, \"Transaction Support in a \
     Log-Structured File System\" (ICDE 1993)\n";
  Printf.printf "TPC-B scale: %d TPS rating (%d accounts); %d txns; %d seed(s)\n%!"
    o.tps_scale
    (Tpcb.scale_for_tps o.tps_scale).Tpcb.accounts
    o.txns o.nseeds;
  let report ~name = Expcommon.report ~json:true ~name in
  let fig4 = Fig4.run ~tps_scale:o.tps_scale ~txns:o.txns ~seeds () in
  report ~name:"fig4" ~config:fig4.Fig4.config ~print:Fig4.print
    ~to_json:Fig4.to_json fig4;
  let fig5 = Fig5.run ~tps_scale:(min o.tps_scale 2) () in
  report ~name:"fig5" ~config:fig5.Fig5.config ~print:Fig5.print
    ~to_json:Fig5.to_json fig5;
  let fig6 = Fig6.run ~tps_scale:o.tps_scale ~txns:o.txns () in
  report ~name:"fig6" ~config:fig6.Fig6.config ~print:Fig6.print
    ~to_json:Fig6.to_json fig6;
  report ~name:"fig7" ~config:fig4.Fig4.config ~print:Fig7.print
    ~to_json:(Fig7.artifact_json ~fig4 ~fig6)
    (Fig7.of_measurements ~fig4 ~fig6);
  Ablation.print (Ablation.test_and_set ~tps_scale:o.tps_scale ~txns:(o.txns / 2) ());
  Ablation.print
    (Ablation.cleaner_placement ~tps_scale:o.tps_scale ~txns:(o.txns * 3 / 4) ());
  Ablation.print
    (Ablation.cleaning_policy ~tps_scale:o.tps_scale ~txns:(o.txns * 3 / 4) ());
  Ablation.print (Ablation.group_commit ~tps_scale:o.tps_scale ~txns:(o.txns / 2) ());
  Ablation.print_coalescing
    (Ablation.coalescing ~tps_scale:o.tps_scale ~txns:(o.txns * 3 / 4) ());
  Ablation.print
    (Ablation.multiprogramming ~tps_scale:o.tps_scale ~txns:(o.txns / 2) ());
  if o.micro then run_micro ()
