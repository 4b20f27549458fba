(* Tests for the experiment engine: the domain pool's claim order, its
   determinism contract (canonical-order results, lowest-index
   find_first, byte-identical tables at any worker count), failure
   propagation, and shutdown hygiene. *)

open Dds_engine
open Dds_workload

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_map_order () =
  Pool.with_pool ~jobs:4 (fun p ->
      let xs = List.init 100 Fun.id in
      let ys =
        Pool.map p ~key:(Printf.sprintf "sq:%d") ~f:(fun x -> x * x) xs
      in
      check_bool "canonical order" true (ys = List.map (fun x -> x * x) xs))

let test_pool_matches_sequential () =
  (* Satellite 1: a concurrent batch of full simulation runs must give
     the same per-seed results as running them one at a time — i.e. no
     hidden shared state between cells. *)
  let cell seed =
    Sweep.lemma2 ~n:12 ~delta:2 ~ratios:[ 0.5; 0.9 ] ~horizon:150 ~seed ()
  in
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let sequential = List.map cell seeds in
  let concurrent =
    Pool.with_pool ~jobs:4 (fun p ->
        Pool.map p ~key:(Printf.sprintf "cell:%d") ~f:cell seeds)
  in
  check_bool "concurrent == sequential" true (concurrent = sequential)

(* Jobs start in submission order: job 0 is claimed before any other,
   so it starts while every other job is still in its 20ms sleep. A
   heavy job submitted first is therefore never left for last. *)
let test_pool_claim_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun p ->
          let finished = Atomic.make 0 in
          let seen =
            Pool.map p ~key:(Printf.sprintf "claim:%d")
              ~f:(fun i ->
                if i = 0 then Atomic.get finished
                else begin
                  Unix.sleepf 0.02;
                  Atomic.incr finished;
                  0
                end)
              (List.init (2 * jobs) Fun.id)
          in
          check_int (Printf.sprintf "jobs %d: finished jobs seen by job 0" jobs) 0
            (List.hd seen)))
    [ 2; 4 ]

let test_pool_failure_carries_key () =
  Pool.with_pool ~jobs:2 (fun p ->
      match
        Pool.map p
          ~key:(Printf.sprintf "job:%d")
          ~f:(fun x -> if x = 7 then failwith "boom" else x)
          (List.init 16 Fun.id)
      with
      | _ -> Alcotest.fail "expected Job_failed"
      | exception Pool.Job_failed { key; exn } ->
        check Alcotest.string "failing job named" "job:7" key;
        check_bool "original exception kept" true (exn = Failure "boom"))

let test_pool_shutdown () =
  let p = Pool.create ~jobs:3 () in
  check_int "worker count" 3 (Pool.jobs p);
  ignore (Pool.map p ~key:(Printf.sprintf "warm:%d") ~f:Fun.id [ 1; 2; 3 ]);
  Pool.shutdown p;
  Pool.shutdown p (* idempotent *);
  match Pool.map p ~key:(Printf.sprintf "late:%d") ~f:Fun.id [ 1 ] with
  | _ -> Alcotest.fail "map after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_find_first_lowest () =
  Pool.with_pool ~jobs:8 (fun p ->
      (* Several matches; the lowest index must win regardless of which
         worker finishes first, and the examined count must equal the
         sequential prefix length. *)
      let xs = List.init 64 Fun.id in
      for _ = 1 to 20 do
        match
          Pool.find_first p
            ~key:(Printf.sprintf "probe:%d")
            ~f:(fun x -> if x >= 13 && x mod 2 = 1 then Some (x * 10) else None)
            xs
        with
        | None -> Alcotest.fail "expected a hit"
        | Some (i, v) ->
          check_int "lowest matching index" 13 i;
          check_int "its payload" 130 v
      done)

let test_find_first_none () =
  Pool.with_pool ~jobs:4 (fun p ->
      check_bool "no match -> None" true
        (Pool.find_first p ~key:(Printf.sprintf "miss:%d") ~f:(fun _ -> None)
           (List.init 32 Fun.id)
        = None))

(* ------------------------------------------------------------------ *)
(* Determinism property: a rendered sweep table is byte-identical for
   any worker count (satellite 3). *)

let render_lemma2 ~pool ~n ~ratios ~seed =
  Format.asprintf "%a" Report.pp
    (Tables.lemma2 ~n ~delta:2 (Sweep.lemma2 ?pool ~n ~delta:2 ~ratios ~horizon:120 ~seed ()))

let prop_tables_jobs_invariant =
  QCheck.Test.make ~count:8 ~name:"sweep tables byte-identical for jobs in {1,2,4,8}"
    QCheck.(
      pair (int_range 6 14)
        (pair (int_range 1 1000) (list_of_size Gen.(int_range 1 4) (float_range 0.2 1.5))))
    (fun (n, (seed, ratios)) ->
      let ratios = if ratios = [] then [ 0.5 ] else ratios in
      let reference = render_lemma2 ~pool:None ~n ~ratios ~seed in
      List.for_all
        (fun jobs ->
          Pool.with_pool ~jobs (fun p ->
              String.equal reference (render_lemma2 ~pool:(Some p) ~n ~ratios ~seed)))
        [ 1; 2; 4; 8 ])

let () =
  Alcotest.run "dds-engine"
    [
      ( "pool",
        [
          Alcotest.test_case "map canonical order" `Quick test_pool_map_order;
          Alcotest.test_case "claim order" `Quick test_pool_claim_order;
          Alcotest.test_case "concurrent == sequential" `Slow test_pool_matches_sequential;
          Alcotest.test_case "failure carries key" `Quick test_pool_failure_carries_key;
          Alcotest.test_case "shutdown" `Quick test_pool_shutdown;
          Alcotest.test_case "find_first lowest" `Quick test_find_first_lowest;
          Alcotest.test_case "find_first none" `Quick test_find_first_none;
        ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest ~long:false prop_tables_jobs_invariant ] );
    ]
