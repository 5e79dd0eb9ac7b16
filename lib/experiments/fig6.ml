type side = {
  fs_name : string;
  tps : float;
  scan_s : float;
  contiguity : float option;
  stats : Stats.t;
}

type t = { readopt : side; lfs : side; txns : int; config : Config.t }

let run ?config ?(tps_scale = 4) ?(txns = 20_000) ?(seed = 1) () =
  let config = Expcommon.tps_config ?config tps_scale in
  let scale = Tpcb.scale_for_tps tps_scale in
  let one setup =
    let m = Txstack.machine setup config in
    let rng = Rng.create ~seed in
    let stack, db, _ = Txstack.boot_tpcb ~wal:Expcommon.wal ~scale ~rng m in
    let r = Tpcb.run m.clock m.stats m.cfg db stack.txn ~rng ~n:txns in
    (* Flush everything so the scan measures the on-disk layout, not the
       caches' leftovers. *)
    (match stack.txn with Tpcb.User env -> Libtp.checkpoint env | Kernel _ -> ());
    stack.vfs.Vfs.sync ();
    let scan_s = Workloads.scan m.clock m.stats m.cfg stack.vfs db in
    {
      fs_name = stack.vfs.Vfs.name;
      tps = r.Tpcb.tps;
      scan_s;
      contiguity =
        (match stack.fs with
        | Txstack.Ffs fs -> Some (Ffs.contiguity fs "/tpcb/account")
        | Lfs _ -> None);
      stats = m.stats;
    }
  in
  { readopt = one Txstack.Ffs_user; lfs = one Txstack.Lfs_user; txns; config }

let side_json s =
  Json.Obj
    [
      ("fs", Json.Str s.fs_name);
      ("tps", Json.Float s.tps);
      ("scan_s", Json.Float s.scan_s);
      ( "contiguity",
        match s.contiguity with Some c -> Json.Float c | None -> Json.Null );
      ("stats", Stats.to_json s.stats);
    ]

let to_json t =
  Json.Obj
    [
      ("figure", Json.Str "fig6");
      ("txns", Json.Int t.txns);
      ("readopt", side_json t.readopt);
      ("lfs", side_json t.lfs);
    ]

let print t =
  Expcommon.pp_header
    (Printf.sprintf
       "Figure 6: Sequential (key-order) read after %d random transactions"
       t.txns);
  let row s =
    Printf.printf "%-16s scan %10.1fs   (preceding run: %.2f TPS)%s\n"
      s.fs_name s.scan_s s.tps
      (match s.contiguity with
      | Some c -> Printf.sprintf "   layout contiguity %.2f" c
      | None -> "")
  in
  row t.readopt;
  row t.lfs;
  Printf.printf
    "\nshape: LFS scan / read-optimized scan = %.2fx (paper: ~1.5x — \
     read-optimized 50%% faster)\n"
    (t.lfs.scan_s /. t.readopt.scan_s)

(* The paper's shape: after random updates LFS scans slower than the
   read-optimized system, whose layout stayed sequential. *)
let check data =
  let side key = Option.value ~default:Json.Null (Json.member key data) in
  let ro = side "readopt" and lfs = side "lfs" in
  let num = Expcommon.num in
  (if num "scan_s" lfs > num "scan_s" ro then []
   else
     [
       Printf.sprintf "fig6: LFS scan (%.1fs) not slower than read-optimized (%.1fs)"
         (num "scan_s" lfs) (num "scan_s" ro);
     ])
  @
  if num "contiguity" ro > 0.95 then []
  else
    [
      Printf.sprintf "fig6: read-optimized contiguity %.4f not above 0.95"
        (num "contiguity" ro);
    ]
