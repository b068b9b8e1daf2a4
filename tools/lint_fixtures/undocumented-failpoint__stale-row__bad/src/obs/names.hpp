#pragma once
// cfsf-lint: failpoint-inventory-begin
inline constexpr FailPointInfo kFailPoints[] = {
    {"core.boom", "F() entry", "InjectedFault"},
};
// cfsf-lint: failpoint-inventory-end
