#pragma once
// cpxcheck fixture — ckpt rule: a miniature checkpoint registry.
// `fix::Absent` is registered but implements nothing (EXPECT a finding at
// line 1 of this file); `fix::Saved` exists but drops a member.

namespace fix::ckpt {

inline constexpr const char* kCheckpointedClasses[] = {
    "fix::Saved",
    "fix::Absent",
};

}  // namespace fix::ckpt
