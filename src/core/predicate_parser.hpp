#pragma once

#include <string>
#include <string_view>

#include "core/predicate.hpp"

namespace psn::core {

/// Parses a named predicate from text. Grammar (C-like precedence):
///
///   expr    := or
///   or      := and ( ("||" | "or") and )*
///   and     := cmp ( ("&&" | "and") cmp )*
///   cmp     := sum ( ("<" | "<=" | ">" | ">=" | "==" | "!=") sum )?
///   sum     := term ( ("+" | "-") term )*
///   term    := factor ( ("*" | "/") factor )*
///   factor  := "-" factor | "!" factor | primary
///   primary := NUMBER
///            | IDENT "[" NUMBER "]"          -- variable at a process,
///                                               e.g. entered[2]
///            | ("sum"|"min"|"max"|"count") "(" IDENT ")"
///                                            -- aggregate over processes
///            | "true" | "false"
///            | "(" expr ")"
///
/// Examples from the paper:
///   "sum(entered) - sum(exited) > 200"            (§5 exhibition hall)
///   "temp[0] > 30 && occupied[0]"                 (§3.1 smart office)
///   "x[1] == 5 && y[2] > 7"                       (§3.1.2 conjunctive ψ)
///   "x[1] + y[2] > 7"                             (§3.1.2 relational φ)
///
/// Throws ConfigError with position information on malformed input. Names
/// stay text: parsing interns nothing (DESIGN.md §11).
Predicate parse_predicate(const std::string& name, std::string_view text);

}  // namespace psn::core
