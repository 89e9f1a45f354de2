module Model = Eba_fip.Model
module Value = Eba_sim.Value
module Config = Eba_sim.Config
module Metrics = Eba_util.Metrics

type t =
  | Const of bool
  | Atom of string * Pset.t
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | In of Nonrigid.t * int
  | K of int * t
  | B of Nonrigid.t * int * t
  | E of Nonrigid.t * t
  | C of Nonrigid.t * t
  | Ebox of Nonrigid.t * t
  | Cbox of Nonrigid.t * t
  | Cdia of Nonrigid.t * t
  | Empty of Nonrigid.t
  | Always of t
  | Eventually of t
  | Throughout of t

let atom model name pred = Atom (name, Pset.init (Model.npoints model) pred)

(* ∃v is a property of the run's initial configuration: whole runs in. *)
let exists_value model v =
  let name = Format.asprintf "exists%a" Value.pp v in
  let s = Pset.create (Model.npoints model) in
  for run = 0 to Model.nruns model - 1 do
    let first = Model.point model ~run ~time:0 in
    if Config.exists_value (Model.run_of_point model first).Model.config v then
      Pset.add_range s first (first + Model.horizon model + 1)
  done;
  Atom (name, s)

let ( &&& ) a b = And [ a; b ]
let ( ||| ) a b = Or [ a; b ]
let neg a = Not a

let m_evals = Metrics.counter "formula.evals"
let m_hits = Metrics.counter "formula.memo_hits"

(* Keyed on physical identity: a subformula value shared by several
   formulas is evaluated once per env.  The structural hash only picks the
   bucket; it is bounded, so hashing a deep formula costs a few words. *)
module Memo = Hashtbl.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type env = {
  env_model : Model.t;
  mutable closures : (Nonrigid.t * Continual.closure) list;
  memo : Pset.t Memo.t;
  nonfaulty : Nonrigid.t Lazy.t;
  exists : t Lazy.t array;  (* ∃0, ∃1 *)
}

let env model =
  {
    env_model = model;
    closures = [];
    memo = Memo.create 64;
    nonfaulty = lazy (Nonrigid.nonfaulty model);
    exists = Array.init 2 (fun v -> lazy (exists_value model (Value.of_int v)));
  }

let model e = e.env_model
let nonfaulty e = Lazy.force e.nonfaulty
let exists e v = Lazy.force e.exists.(Value.to_int v)

let closure_for e s =
  match List.find_opt (fun (s', _) -> s' == s) e.closures with
  | Some (_, cl) -> cl
  | None ->
      let cl = Continual.closure e.env_model s in
      e.closures <- (s, cl) :: e.closures;
      cl

let rec eval e f =
  let m = e.env_model in
  let np = Model.npoints m in
  match f with
  | Const true -> Pset.full np
  | Const false -> Pset.create np
  | Atom (_, s) -> s
  | In (s, i) -> Nonrigid.points s ~proc:i
  | Not f -> Pset.complement (eval e f)
  | And fs ->
      List.fold_left (fun acc f -> Pset.inter acc (eval e f)) (Pset.full np) fs
  | Or fs ->
      List.fold_left (fun acc f -> Pset.union acc (eval e f)) (Pset.create np) fs
  | Implies (a, b) -> Pset.union (Pset.complement (eval e a)) (eval e b)
  | Iff (a, b) ->
      let sa = eval e a and sb = eval e b in
      Pset.complement (Pset.union (Pset.diff sa sb) (Pset.diff sb sa))
  | K (i, g) -> memo e f (fun () -> Knowledge.knows m ~proc:i (eval e g))
  | B (s, i, g) -> memo e f (fun () -> Knowledge.believes m s ~proc:i (eval e g))
  | E (s, g) -> memo e f (fun () -> Knowledge.everyone_knows m s (eval e g))
  | C (s, g) -> memo e f (fun () -> Common.common m s (eval e g))
  | Ebox (s, g) -> memo e f (fun () -> Continual.ebox m s (eval e g))
  | Cbox (s, g) -> memo e f (fun () -> Continual.cbox (closure_for e s) (eval e g))
  | Cdia (s, g) -> memo e f (fun () -> Eventual.eventual_common m s (eval e g))
  | Empty s -> memo e f (fun () -> Nonrigid.empty_points m s)
  | Always g -> memo e f (fun () -> Temporal.always m (eval e g))
  | Eventually g -> memo e f (fun () -> Temporal.eventually m (eval e g))
  | Throughout g -> memo e f (fun () -> Temporal.throughout m (eval e g))

(* The modal and temporal operators go through the memo; the Boolean
   connectives are a few word operations, cheaper than a lookup. *)
and memo e f compute =
  match Memo.find_opt e.memo f with
  | Some s ->
      Metrics.incr m_hits;
      s
  | None ->
      Metrics.incr m_evals;
      let s = compute () in
      Memo.add e.memo f s;
      s

let holds e f ~point = Pset.mem (eval e f) point
let valid e f = Pset.is_full (eval e f)

let counterexample e f =
  let s = eval e f in
  Pset.choose (Pset.complement s)

let rec pp fmt = function
  | Const b -> Format.pp_print_bool fmt b
  | Atom (name, _) -> Format.pp_print_string fmt name
  | Not f -> Format.fprintf fmt "~%a" pp_paren f
  | And fs -> pp_infix fmt " & " fs
  | Or fs -> pp_infix fmt " | " fs
  | Implies (a, b) -> Format.fprintf fmt "(%a => %a)" pp a pp b
  | Iff (a, b) -> Format.fprintf fmt "(%a <=> %a)" pp a pp b
  | In (s, i) -> Format.fprintf fmt "%d in %a" i Nonrigid.pp s
  | K (i, f) -> Format.fprintf fmt "K_%d %a" i pp_paren f
  | B (s, i, f) -> Format.fprintf fmt "B[%a]_%d %a" Nonrigid.pp s i pp_paren f
  | E (s, f) -> Format.fprintf fmt "E[%a] %a" Nonrigid.pp s pp_paren f
  | C (s, f) -> Format.fprintf fmt "C[%a] %a" Nonrigid.pp s pp_paren f
  | Ebox (s, f) -> Format.fprintf fmt "E□[%a] %a" Nonrigid.pp s pp_paren f
  | Cbox (s, f) -> Format.fprintf fmt "C□[%a] %a" Nonrigid.pp s pp_paren f
  | Cdia (s, f) -> Format.fprintf fmt "C◇[%a] %a" Nonrigid.pp s pp_paren f
  | Empty s -> Format.fprintf fmt "(%a = {})" Nonrigid.pp s
  | Always f -> Format.fprintf fmt "□%a" pp_paren f
  | Eventually f -> Format.fprintf fmt "◇%a" pp_paren f
  | Throughout f -> Format.fprintf fmt "⊟%a" pp_paren f

and pp_paren fmt f =
  match f with
  | Const _ | Atom _ | Not _ | K _ | B _ | E _ | C _ | Ebox _ | Cbox _ | Empty _ ->
      pp fmt f
  | Cdia _ -> pp fmt f
  | And _ | Or _ | Implies _ | Iff _ | In _ | Always _ | Eventually _ | Throughout _ ->
      Format.fprintf fmt "(%a)" pp f

and pp_infix fmt sep fs =
  match fs with
  | [] -> Format.pp_print_string fmt "true"
  | _ ->
      Format.fprintf fmt "(%a)"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt sep)
           pp)
        fs
