type side = {
  fs_name : string;
  tps : float;
  scan_s : float;
  contiguity : float option;
  stats : Stats.t;
}

type t = { readopt : side; lfs : side; txns : int; config : Config.t }

let run ?config ?(tps_scale = 4) ?(txns = 20_000) ?(seed = 1) () =
  let config =
    match config with
    | Some c -> c
    | None ->
      Config.scaled ~factor:(float_of_int tps_scale /. 10.0) Config.default
  in
  let scale = Tpcb.scale_for_tps tps_scale in
  let one which =
    let m = Expcommon.machine config in
    let rng = Rng.create ~seed in
    let v, contiguity =
      match which with
      | `Readopt ->
        let fs = Ffs.format (Diskset.primary m.Expcommon.disks) m.Expcommon.clock m.Expcommon.stats m.Expcommon.cfg in
        (Ffs.vfs fs, fun () -> Some (Ffs.contiguity fs "/tpcb/account"))
      | `Lfs ->
        let fs = Lfs.format m.Expcommon.disks m.Expcommon.clock m.Expcommon.stats m.Expcommon.cfg in
        (Lfs.vfs fs, fun () -> None)
    in
    let db = Tpcb.build m.Expcommon.clock m.Expcommon.stats m.Expcommon.cfg v ~rng ~scale in
    let env =
      Libtp.open_env m.Expcommon.clock m.Expcommon.stats m.Expcommon.cfg v
        ~pool_pages:1024 ~log_path:"/tpcb/log" ()
    in
    let r =
      Tpcb.run m.Expcommon.clock m.Expcommon.stats m.Expcommon.cfg db
        (Tpcb.User env) ~rng ~n:txns
    in
    (* Flush everything so the scan measures the on-disk layout, not the
       caches' leftovers. *)
    Libtp.checkpoint env;
    v.Vfs.sync ();
    let scan_s =
      Workloads.scan m.Expcommon.clock m.Expcommon.stats m.Expcommon.cfg v db
    in
    {
      fs_name = v.Vfs.name;
      tps = r.Tpcb.tps;
      scan_s;
      contiguity = contiguity ();
      stats = m.Expcommon.stats;
    }
  in
  { readopt = one `Readopt; lfs = one `Lfs; txns; config }

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
